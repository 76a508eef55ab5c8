#include "ir/analysis.h"

#include <algorithm>
#include <unordered_set>

#include "support/error.h"
#include "support/flat_hash_index.h"

namespace chehab::ir {

bool
typeFromChildren(const Expr& e, const TypeInfo* kids, TypeInfo& out,
                 std::string* why)
{
    // Messages are built only for callers that want them (typeOf); the
    // rewriter's check runs this on every candidate it builds.
    const auto fail = [why](const char* message) {
        if (why) *why = message;
        return false;
    };
    const std::size_t arity = e.arity();
    switch (e.op()) {
      case Op::Var:
        out = {false, 1, false};
        return true;
      case Op::PlainVar:
      case Op::Const:
        out = {false, 1, true};
        return true;
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
        if (arity != 2) break;
        if (kids[0].is_vector || kids[1].is_vector) {
            if (why) {
                *why = "scalar operator applied to vector operand in " +
                       e.toString();
            }
            return false;
        }
        out = {false, 1, kids[0].is_plain && kids[1].is_plain};
        return true;
      case Op::Neg:
        if (arity != 1) break;
        if (kids[0].is_vector) {
            return fail("scalar negation of vector operand");
        }
        out = {false, 1, kids[0].is_plain};
        return true;
      case Op::Rotate:
        if (arity != 1) break;
        if (!kids[0].is_vector) return fail("rotation of a scalar operand");
        out = {true, kids[0].width, kids[0].is_plain};
        return true;
      case Op::Vec: {
        bool plain = true;
        for (std::size_t i = 0; i < arity; ++i) {
            if (kids[i].is_vector) {
                return fail("nested vector inside Vec constructor");
            }
            plain = plain && kids[i].is_plain;
        }
        out = {true, static_cast<int>(arity), plain};
        return true;
      }
      case Op::VecAdd:
      case Op::VecSub:
      case Op::VecMul:
        if (arity != 2) break;
        if (!kids[0].is_vector || !kids[1].is_vector) {
            return fail("vector operator applied to scalar operand");
        }
        if (kids[0].width != kids[1].width) {
            if (why) {
                *why = "vector width mismatch: " +
                       std::to_string(kids[0].width) + " vs " +
                       std::to_string(kids[1].width);
            }
            return false;
        }
        out = {true, kids[0].width, kids[0].is_plain && kids[1].is_plain};
        return true;
      case Op::VecNeg:
        if (arity != 1) break;
        if (!kids[0].is_vector) {
            return fail("vector negation of scalar operand");
        }
        out = {true, kids[0].width, kids[0].is_plain};
        return true;
    }
    if (why) {
        *why = std::string("operator '") + opName(e.op()) + "' has " +
               std::to_string(arity) + " operands";
    }
    return false;
}

namespace {

/// Types \p e bottom-up. A Vec rejects a vector element before typing
/// the elements after it; every other node types all of its children
/// first. On an ill-typed subtree returns false, with the first
/// violation found in \p why if it is set.
bool
typeOfImpl(const ExprPtr& e, TypeInfo& out, std::string* why)
{
    TypeInfo pair[2];
    std::vector<TypeInfo> wide;
    TypeInfo* kids = pair;
    if (e->arity() > 2) {
        wide.resize(e->arity());
        kids = wide.data();
    }
    for (std::size_t i = 0; i < e->arity(); ++i) {
        if (!typeOfImpl(e->child(i), kids[i], why)) return false;
        if (e->op() == Op::Vec && kids[i].is_vector) break;
    }
    return typeFromChildren(*e, kids, out, why);
}

} // namespace

TypeInfo
typeOf(const ExprPtr& e)
{
    TypeInfo type;
    std::string why;
    if (!typeOfImpl(e, type, &why)) throw CompileError(why);
    return type;
}

bool
wellTyped(const ExprPtr& e)
{
    TypeInfo type;
    return typeOfImpl(e, type, nullptr);
}

namespace {

/// Classify a single node into the OpCounts buckets.
void
classifyNode(const Expr& e, OpCounts& counts)
{
    const bool vector_form = isVectorOp(e.op()) || e.op() == Op::Rotate;
    switch (e.op()) {
      case Op::Var:
      case Op::PlainVar:
      case Op::Const:
      case Op::Vec:
        return;
      case Op::Rotate:
        if (e.isPlain()) {
            ++counts.plain_ops;
        } else {
            ++counts.rotation;
            ++counts.vector_ops;
        }
        return;
      case Op::Add:
      case Op::Sub:
      case Op::Neg:
      case Op::VecAdd:
      case Op::VecSub:
      case Op::VecNeg:
        if (e.isPlain()) {
            ++counts.plain_ops;
        } else {
            ++counts.ct_add;
            vector_form ? ++counts.vector_ops : ++counts.scalar_ops;
        }
        return;
      case Op::Mul:
      case Op::VecMul: {
        if (e.isPlain()) {
            ++counts.plain_ops;
            return;
        }
        const bool a_plain = e.child(0)->isPlain();
        const bool b_plain = e.child(1)->isPlain();
        if (a_plain || b_plain) {
            ++counts.ct_pt_mul;
        } else if (equal(e.child(0), e.child(1))) {
            ++counts.square;
        } else {
            ++counts.ct_ct_mul;
        }
        vector_form ? ++counts.vector_ops : ++counts.scalar_ops;
        return;
      }
    }
}

void
forEachUniqueImpl(const ExprPtr& e, FlatHashIndex<const Expr*>& seen,
                  const std::function<void(const Expr&)>& fn)
{
    const auto same = [&](const Expr* other) { return equal(*other, *e); };
    if (seen.find(e->hash(), same)) return;
    seen.insert(e->hash(), e.get());
    fn(*e);
    for (const auto& child : e->children()) {
        forEachUniqueImpl(child, seen, fn);
    }
}

} // namespace

void
forEachUniqueNode(const ExprPtr& root,
                  const std::function<void(const Expr&)>& fn)
{
    FlatHashIndex<const Expr*> seen;
    forEachUniqueImpl(root, seen, fn);
}

OpCounts
countOps(const ExprPtr& root, bool dag_unique)
{
    OpCounts counts;
    if (dag_unique) {
        forEachUniqueNode(root, [&](const Expr& e) {
            classifyNode(e, counts);
        });
    } else {
        forEachNode(root, [&](const ExprPtr& e, int) {
            classifyNode(*e, counts);
        });
    }
    return counts;
}

int
circuitDepth(const ExprPtr& root)
{
    return root->circuitDepth();
}

int
multiplicativeDepth(const ExprPtr& root)
{
    return root->multDepth();
}

namespace {

std::vector<std::string>
collectVars(const ExprPtr& root, Op which)
{
    std::vector<std::string> names;
    std::unordered_set<std::string> seen;
    forEachNode(root, [&](const ExprPtr& e, int) {
        if (e->op() == which && seen.insert(e->name()).second) {
            names.push_back(e->name());
        }
    });
    return names;
}

} // namespace

std::vector<std::string>
ciphertextVars(const ExprPtr& root)
{
    return collectVars(root, Op::Var);
}

std::vector<std::string>
plaintextVars(const ExprPtr& root)
{
    return collectVars(root, Op::PlainVar);
}

std::vector<int>
rotationSteps(const ExprPtr& root)
{
    std::vector<int> steps;
    std::unordered_set<int> seen;
    forEachNode(root, [&](const ExprPtr& e, int) {
        if (e->op() == Op::Rotate && seen.insert(e->step()).second) {
            steps.push_back(e->step());
        }
    });
    std::sort(steps.begin(), steps.end());
    return steps;
}

int
outputWidth(const ExprPtr& root)
{
    const TypeInfo t = typeOf(root);
    return t.is_vector ? t.width : 1;
}

} // namespace chehab::ir
