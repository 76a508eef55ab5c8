/// \file
/// CHEHAB intermediate representation (IR).
///
/// The IR is an immutable expression tree over the operation set that BFV
/// supports natively (Table 3 of the paper): scalar +, -, *, unary
/// negation, cyclic slot rotations, the vector constructor Vec, and the
/// element-wise vector operations VecAdd / VecSub / VecMul / VecNeg.
///
/// Nodes are reference counted and never mutated after construction, so
/// rewriting produces new trees that share unchanged subtrees with the old
/// ones — exactly the behaviour a term rewriting system wants. Structural
/// hashes, sizes and depths are computed at construction, making
/// structural equality, CSE, match deduplication and cost queries cheap.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace chehab::ir {

/// Operation tag for an IR node.
enum class Op : std::uint8_t {
    Var,      ///< Ciphertext input variable (leaf).
    PlainVar, ///< Plaintext input variable (leaf).
    Const,    ///< Integer constant, implicitly plaintext (leaf).
    Add,      ///< Scalar addition.
    Sub,      ///< Scalar subtraction.
    Mul,      ///< Scalar multiplication.
    Neg,      ///< Scalar negation.
    Rotate,   ///< Cyclic left rotation of a vector by `step` slots.
    Vec,      ///< Vector constructor packing scalar children into slots.
    VecAdd,   ///< Element-wise vector addition.
    VecSub,   ///< Element-wise vector subtraction.
    VecMul,   ///< Element-wise vector multiplication.
    VecNeg,   ///< Element-wise vector negation.
};

/// Human-readable mnemonic used by the printer and tokenizer
/// (e.g. "+", "VecMul", "<<").
const char* opName(Op op);

/// True for Add/Sub/Mul/Neg (scalar compute ops).
bool isScalarOp(Op op);

/// True for VecAdd/VecSub/VecMul/VecNeg.
bool isVectorOp(Op op);

/// True for any op that performs arithmetic at runtime (everything except
/// leaves and the Vec constructor, which is resolved at packing time).
bool isComputeOp(Op op);

class Expr;

/// Shared immutable handle to an expression node.
using ExprPtr = std::shared_ptr<const Expr>;

/// One immutable IR node.
///
/// Invariants: children_ arity matches op (binary ops have 2, unary 1,
/// Rotate 1 plus a step, Vec >= 1, leaves 0); hash_, numNodes_, the
/// height and the depths are consistent with the subtree. Use the free
/// factory functions below — the constructor is private to enforce the
/// invariants.
class Expr : public std::enable_shared_from_this<Expr>
{
  public:
    Op op() const { return op_; }
    const std::vector<ExprPtr>& children() const { return children_; }
    std::size_t arity() const { return children_.size(); }
    const ExprPtr& child(std::size_t i) const { return children_[i]; }

    /// Variable name; only meaningful for Var/PlainVar.
    const std::string& name() const { return name_; }

    /// Constant value; only meaningful for Const.
    std::int64_t value() const { return value_; }

    /// Rotation step; only meaningful for Rotate. Positive = left.
    int step() const { return step_; }

    /// Structural hash over (op, name, value, step, child hashes).
    std::size_t hash() const { return hash_; }

    /// Number of nodes in this subtree (including this node).
    int numNodes() const { return numNodes_; }

    /// Maximum tree height (leaf = 1).
    int height() const { return height_; }

    /// Circuit depth of this subtree; see ir::circuitDepth.
    int circuitDepth() const { return circuit_depth_; }

    /// Multiplicative depth of this subtree; see ir::multiplicativeDepth.
    int multDepth() const { return mult_depth_; }

    /// True if the subtree references no ciphertext variable, i.e. the
    /// whole value is known to the (untrusted) evaluator in plaintext.
    bool isPlain() const { return isPlain_; }

    /// S-expression rendering, e.g. "(+ a (* b 2))".
    std::string toString() const;

    friend ExprPtr makeNode(Op op, std::vector<ExprPtr> children,
                            std::string name, std::int64_t value, int step);

  private:
    Expr() = default;

    Op op_ = Op::Const;
    std::vector<ExprPtr> children_;
    std::string name_;
    std::int64_t value_ = 0;
    int step_ = 0;
    std::size_t hash_ = 0;
    int numNodes_ = 1;
    int height_ = 1;
    int circuit_depth_ = 0;
    int mult_depth_ = 0;
    bool isPlain_ = true;
};

/// \name Factory functions
/// The only way to create nodes; they compute hashes/metadata eagerly.
/// @{

/// Low-level factory; prefer the typed helpers below.
ExprPtr makeNode(Op op, std::vector<ExprPtr> children, std::string name,
                 std::int64_t value, int step);

ExprPtr var(std::string name);      ///< Ciphertext input.
ExprPtr plainVar(std::string name); ///< Plaintext input.
ExprPtr constant(std::int64_t v);   ///< Integer literal.

ExprPtr add(ExprPtr a, ExprPtr b);
ExprPtr sub(ExprPtr a, ExprPtr b);
ExprPtr mul(ExprPtr a, ExprPtr b);
ExprPtr neg(ExprPtr a);

/// Cyclic left rotation by \p step slots ("<<" in the DSL). Negative steps
/// rotate right.
ExprPtr rotate(ExprPtr v, int step);

ExprPtr vec(std::vector<ExprPtr> elements);
ExprPtr vecAdd(ExprPtr a, ExprPtr b);
ExprPtr vecSub(ExprPtr a, ExprPtr b);
ExprPtr vecMul(ExprPtr a, ExprPtr b);
ExprPtr vecNeg(ExprPtr a);
/// @}

/// Deep structural equality (hash-accelerated).
bool equal(const ExprPtr& a, const ExprPtr& b);
bool equal(const Expr& a, const Expr& b);

/// 128-bit content fingerprint of a subtree.
///
/// Unlike Expr::hash() — a fast 64-bit structural hash meant for hash
/// tables, where collisions are handled by a deep-equality check — the
/// fingerprint mixes every node field through two independent 64-bit
/// mixers, so it can stand alone as a content-addressed cache key
/// (service::CompileCache): two programs with equal fingerprints are,
/// for all practical purposes, structurally identical.
struct Fingerprint
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    friend bool
    operator==(const Fingerprint& a, const Fingerprint& b)
    {
        return a.hi == b.hi && a.lo == b.lo;
    }
    friend bool
    operator!=(const Fingerprint& a, const Fingerprint& b)
    {
        return !(a == b);
    }
};

/// Compute the content fingerprint of \p root. Deterministic across
/// processes and runs (no pointer or ASLR dependence).
Fingerprint fingerprint(const ExprPtr& root);

/// Rebuild \p root with the subtree at pre-order index \p index replaced by
/// \p replacement. Index 0 is the root itself. Shared structure outside the
/// replaced path is reused.
ExprPtr replaceAt(const ExprPtr& root, int index, const ExprPtr& replacement);

/// Fetch the subtree at pre-order index \p index (0 = root).
ExprPtr subtreeAt(const ExprPtr& root, int index);

/// Pre-order visit of every node; callback receives (node, preorder index).
void forEachNode(const ExprPtr& root,
                 const std::function<void(const ExprPtr&, int)>& fn);

} // namespace chehab::ir
