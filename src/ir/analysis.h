/// \file
/// Static analyses over the CHEHAB IR: typing, circuit depth,
/// multiplicative depth, and operation counting (the ∪ / ∪⊗ / ⊗ / ⟳ / ⊙ /
/// ⊕ / ⊠ metrics of Table 6).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/expr.h"

namespace chehab::ir {

/// Result of type checking a subtree.
struct TypeInfo
{
    bool is_vector = false; ///< Vector-typed (Vec / vector ops / Rotate).
    int width = 1;          ///< Slot count for vectors, 1 for scalars.
    bool is_plain = false;  ///< No ciphertext variable in the subtree.
};

/// Type check \p e. Throws CompileError on arity/shape violations
/// (e.g. VecAdd of scalars, Vec containing a nested vector, width
/// mismatches between vector operands).
TypeInfo typeOf(const ExprPtr& e);

/// True if \p e type checks.
bool wellTyped(const ExprPtr& e);

/// The typing rule at one node: the type of \p e given the types of its
/// children (\p child_types, one per child, in order), without looking
/// further down. typeOf applies it at every node; callers that already
/// know the children's types (the rewriter's incremental check) apply it
/// directly. Returns false if the node is ill typed, with the violation
/// in \p why if it is set.
bool typeFromChildren(const Expr& e, const TypeInfo* child_types,
                      TypeInfo& out, std::string* why = nullptr);

/// Operation counts over the *unique* subtrees of the expression, i.e.
/// after implicit common-subexpression elimination, which is how the paper
/// reports circuit sizes. A Mul/VecMul is classified by the plain-ness of
/// its operands; squares (both operands structurally identical ciphertexts)
/// are reported separately like SEAL's square().
struct OpCounts
{
    int ct_add = 0;     ///< ⊕: ciphertext additions/subtractions/negations.
    int ct_ct_mul = 0;  ///< ⊗: ciphertext×ciphertext multiplications.
    int ct_pt_mul = 0;  ///< ⊙: ciphertext×plaintext multiplications.
    int square = 0;     ///< ⊠: ciphertext squarings.
    int rotation = 0;   ///< ⟳: slot rotations.
    int plain_ops = 0;  ///< Plaintext-only arithmetic (free at runtime).
    int scalar_ops = 0; ///< Ciphertext ops still in scalar (unvectorized) form.
    int vector_ops = 0; ///< Ciphertext ops in vector form.

    /// All runtime homomorphic operations.
    int total() const
    {
        return ct_add + ct_ct_mul + ct_pt_mul + square + rotation;
    }
};

/// Count operations; see OpCounts. When \p dag_unique is true (default),
/// structurally identical subtrees are counted once.
OpCounts countOps(const ExprPtr& root, bool dag_unique = true);

/// Pre-order visit of every structurally distinct subtree once, at its
/// first occurrence (the implicit CSE that countOps and ir::cost price).
void forEachUniqueNode(const ExprPtr& root,
                       const std::function<void(const Expr&)>& fn);

/// Circuit depth ∪: the maximum number of ciphertext compute operations
/// (arithmetic or rotation) on any root-to-leaf path. Vec constructors,
/// leaves and plaintext-only operations do not contribute. Read from
/// the root, which computes it at construction (Expr::circuitDepth).
int circuitDepth(const ExprPtr& root);

/// Multiplicative depth ∪⊗: maximum number of ciphertext×ciphertext
/// multiplications (incl. squares) on any root-to-leaf path. Read from
/// the root (Expr::multDepth).
int multiplicativeDepth(const ExprPtr& root);

/// Names of all ciphertext variables, in first-occurrence order.
std::vector<std::string> ciphertextVars(const ExprPtr& root);

/// Names of all plaintext variables, in first-occurrence order.
std::vector<std::string> plaintextVars(const ExprPtr& root);

/// All distinct rotation steps used in the program (the set χ fed to the
/// rotation-key selection pass, App. B).
std::vector<int> rotationSteps(const ExprPtr& root);

/// Output width: the slot count of the root if vector-typed, else 1.
int outputWidth(const ExprPtr& root);

} // namespace chehab::ir
