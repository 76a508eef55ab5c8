#include "ir/expr.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"

namespace chehab::ir {

const char*
opName(Op op)
{
    switch (op) {
      case Op::Var: return "var";
      case Op::PlainVar: return "pvar";
      case Op::Const: return "const";
      case Op::Add: return "+";
      case Op::Sub: return "-";
      case Op::Mul: return "*";
      case Op::Neg: return "-";
      case Op::Rotate: return "<<";
      case Op::Vec: return "Vec";
      case Op::VecAdd: return "VecAdd";
      case Op::VecSub: return "VecSub";
      case Op::VecMul: return "VecMul";
      case Op::VecNeg: return "VecNeg";
    }
    return "?";
}

bool
isScalarOp(Op op)
{
    return op == Op::Add || op == Op::Sub || op == Op::Mul || op == Op::Neg;
}

bool
isVectorOp(Op op)
{
    return op == Op::VecAdd || op == Op::VecSub || op == Op::VecMul ||
           op == Op::VecNeg;
}

bool
isComputeOp(Op op)
{
    return isScalarOp(op) || isVectorOp(op) || op == Op::Rotate;
}

namespace {

std::size_t
combineHash(std::size_t seed, std::size_t value)
{
    // boost::hash_combine-style mix.
    return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

} // namespace

ExprPtr
makeNode(Op op, std::vector<ExprPtr> children, std::string name,
         std::int64_t value, int step)
{
    auto node = std::shared_ptr<Expr>(new Expr());
    node->op_ = op;
    node->children_ = std::move(children);
    node->name_ = std::move(name);
    node->value_ = value;
    node->step_ = step;

    std::size_t h = combineHash(0xc0ffee, static_cast<std::size_t>(op));
    h = combineHash(h, std::hash<std::string>()(node->name_));
    h = combineHash(h, std::hash<std::int64_t>()(node->value_));
    h = combineHash(h, std::hash<int>()(node->step_));

    int nodes = 1;
    int height = 1;
    int circuit_depth = 0;
    int mult_depth = 0;
    bool plain = op != Op::Var;
    for (const auto& child : node->children_) {
        CHEHAB_ASSERT(child != nullptr, "null child in makeNode");
        h = combineHash(h, child->hash());
        nodes += child->numNodes();
        height = std::max(height, child->height() + 1);
        circuit_depth = std::max(circuit_depth, child->circuitDepth());
        mult_depth = std::max(mult_depth, child->multDepth());
        plain = plain && child->isPlain();
    }
    node->hash_ = h;
    node->numNodes_ = nodes;
    node->height_ = node->children_.empty() ? 1 : height;
    node->isPlain_ = plain;
    // Plaintext work is free at runtime; only ciphertext compute ops
    // count, and only ciphertext x ciphertext products multiply.
    const auto& kids = node->children_;
    const bool ct_ct_mul = (op == Op::Mul || op == Op::VecMul) &&
                           kids.size() == 2 && !kids[0]->isPlain() &&
                           !kids[1]->isPlain();
    node->circuit_depth_ = circuit_depth + (isComputeOp(op) && !plain);
    node->mult_depth_ = mult_depth + ct_ct_mul;
    return node;
}

ExprPtr
var(std::string name)
{
    return makeNode(Op::Var, {}, std::move(name), 0, 0);
}

ExprPtr
plainVar(std::string name)
{
    return makeNode(Op::PlainVar, {}, std::move(name), 0, 0);
}

ExprPtr
constant(std::int64_t v)
{
    return makeNode(Op::Const, {}, {}, v, 0);
}

ExprPtr
add(ExprPtr a, ExprPtr b)
{
    return makeNode(Op::Add, {std::move(a), std::move(b)}, {}, 0, 0);
}

ExprPtr
sub(ExprPtr a, ExprPtr b)
{
    return makeNode(Op::Sub, {std::move(a), std::move(b)}, {}, 0, 0);
}

ExprPtr
mul(ExprPtr a, ExprPtr b)
{
    return makeNode(Op::Mul, {std::move(a), std::move(b)}, {}, 0, 0);
}

ExprPtr
neg(ExprPtr a)
{
    return makeNode(Op::Neg, {std::move(a)}, {}, 0, 0);
}

ExprPtr
rotate(ExprPtr v, int step)
{
    return makeNode(Op::Rotate, {std::move(v)}, {}, 0, step);
}

ExprPtr
vec(std::vector<ExprPtr> elements)
{
    CHEHAB_ASSERT(!elements.empty(), "Vec needs at least one element");
    return makeNode(Op::Vec, std::move(elements), {}, 0, 0);
}

ExprPtr
vecAdd(ExprPtr a, ExprPtr b)
{
    return makeNode(Op::VecAdd, {std::move(a), std::move(b)}, {}, 0, 0);
}

ExprPtr
vecSub(ExprPtr a, ExprPtr b)
{
    return makeNode(Op::VecSub, {std::move(a), std::move(b)}, {}, 0, 0);
}

ExprPtr
vecMul(ExprPtr a, ExprPtr b)
{
    return makeNode(Op::VecMul, {std::move(a), std::move(b)}, {}, 0, 0);
}

ExprPtr
vecNeg(ExprPtr a)
{
    return makeNode(Op::VecNeg, {std::move(a)}, {}, 0, 0);
}

bool
equal(const ExprPtr& a, const ExprPtr& b)
{
    if (a.get() == b.get()) return true;
    if (!a || !b) return false;
    return equal(*a, *b);
}

bool
equal(const Expr& a, const Expr& b)
{
    if (&a == &b) return true;
    if (a.hash() != b.hash()) return false;
    if (a.op() != b.op() || a.arity() != b.arity()) return false;
    if (a.name() != b.name() || a.value() != b.value() ||
        a.step() != b.step()) {
        return false;
    }
    for (std::size_t i = 0; i < a.arity(); ++i) {
        if (!equal(a.child(i), b.child(i))) return false;
    }
    return true;
}

namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Absorb one word into a fingerprint lane with a lane-specific tweak.
std::uint64_t
absorb(std::uint64_t acc, std::uint64_t word, std::uint64_t tweak)
{
    return mix64(acc * 0x9e3779b97f4a7c15ULL + word + tweak);
}

Fingerprint
fingerprintImpl(const ExprPtr& node)
{
    Fingerprint fp;
    fp.hi = absorb(0x243f6a8885a308d3ULL,
                   static_cast<std::uint64_t>(node->op()), 1);
    fp.lo = absorb(0x13198a2e03707344ULL,
                   static_cast<std::uint64_t>(node->op()), 2);
    for (char c : node->name()) {
        fp.hi = absorb(fp.hi, static_cast<unsigned char>(c), 3);
        fp.lo = absorb(fp.lo, static_cast<unsigned char>(c), 5);
    }
    fp.hi = absorb(fp.hi, static_cast<std::uint64_t>(node->value()), 7);
    fp.lo = absorb(fp.lo, static_cast<std::uint64_t>(node->value()), 11);
    fp.hi = absorb(fp.hi, static_cast<std::uint64_t>(node->step()), 13);
    fp.lo = absorb(fp.lo, static_cast<std::uint64_t>(node->step()), 17);
    for (const ExprPtr& child : node->children()) {
        const Fingerprint sub = fingerprintImpl(child);
        fp.hi = absorb(absorb(fp.hi, sub.hi, 19), sub.lo, 23);
        fp.lo = absorb(absorb(fp.lo, sub.lo, 29), sub.hi, 31);
    }
    return fp;
}

} // namespace

Fingerprint
fingerprint(const ExprPtr& root)
{
    if (!root) return {};
    return fingerprintImpl(root);
}

namespace {

/// Recursive worker for replaceAt: `offset` is the pre-order index of
/// `node`; returns the rebuilt node or nullptr if `index` is outside the
/// subtree.
ExprPtr
replaceAtImpl(const ExprPtr& node, int offset, int index,
              const ExprPtr& replacement)
{
    if (index == offset) return replacement;
    int child_offset = offset + 1;
    for (std::size_t i = 0; i < node->arity(); ++i) {
        const ExprPtr& child = node->child(i);
        const int child_end = child_offset + child->numNodes();
        if (index < child_end) {
            ExprPtr rebuilt =
                replaceAtImpl(child, child_offset, index, replacement);
            std::vector<ExprPtr> kids = node->children();
            kids[i] = std::move(rebuilt);
            return makeNode(node->op(), std::move(kids), node->name(),
                            node->value(), node->step());
        }
        child_offset = child_end;
    }
    CHEHAB_ASSERT(false, "replaceAt index out of range");
    return nullptr;
}

} // namespace

ExprPtr
replaceAt(const ExprPtr& root, int index, const ExprPtr& replacement)
{
    CHEHAB_ASSERT(index >= 0 && index < root->numNodes(),
                  "replaceAt index out of range");
    return replaceAtImpl(root, 0, index, replacement);
}

ExprPtr
subtreeAt(const ExprPtr& root, int index)
{
    CHEHAB_ASSERT(index >= 0 && index < root->numNodes(),
                  "subtreeAt index out of range");
    if (index == 0) return root;
    int child_offset = 1;
    for (const auto& child : root->children()) {
        const int child_end = child_offset + child->numNodes();
        if (index < child_end) return subtreeAt(child, index - child_offset);
        child_offset = child_end;
    }
    CHEHAB_ASSERT(false, "subtreeAt index out of range");
    return nullptr;
}

namespace {

void
forEachNodeImpl(const ExprPtr& node, int& counter,
                const std::function<void(const ExprPtr&, int)>& fn)
{
    fn(node, counter++);
    for (const auto& child : node->children()) {
        forEachNodeImpl(child, counter, fn);
    }
}

} // namespace

void
forEachNode(const ExprPtr& root,
            const std::function<void(const ExprPtr&, int)>& fn)
{
    int counter = 0;
    forEachNodeImpl(root, counter, fn);
}

namespace {

void
printExpr(const Expr& e, std::ostringstream& out)
{
    switch (e.op()) {
      case Op::Var:
        out << e.name();
        return;
      case Op::PlainVar:
        out << "(pt " << e.name() << ")";
        return;
      case Op::Const:
        out << e.value();
        return;
      case Op::Rotate:
        out << "(<< ";
        printExpr(*e.child(0), out);
        out << ' ' << e.step() << ')';
        return;
      default:
        break;
    }
    out << '(' << opName(e.op());
    for (const auto& child : e.children()) {
        out << ' ';
        printExpr(*child, out);
    }
    out << ')';
}

} // namespace

std::string
Expr::toString() const
{
    std::ostringstream out;
    printExpr(*this, out);
    return out.str();
}

} // namespace chehab::ir
