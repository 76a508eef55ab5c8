#include "ir/cost_model.h"

namespace chehab::ir {

namespace {

double
nodeCost(const Expr& e, const OpCosts& costs)
{
    if (e.op() == Op::Vec) {
        // Leaf/plain slots are free client-side packing; computed
        // ciphertext slots are materialized with mask/rotate/add.
        double total = 0.0;
        for (const auto& child : e.children()) {
            if (!child->isPlain() && child->op() != Op::Var) {
                total += costs.pack_computed;
            }
        }
        return total;
    }
    if (!isComputeOp(e.op())) return 0.0;
    if (e.isPlain()) return costs.plain_op;
    switch (e.op()) {
      case Op::Rotate:
        return costs.rotation;
      case Op::VecAdd:
      case Op::VecSub:
      case Op::VecNeg:
        return costs.vec_add;
      case Op::VecMul:
        return costs.vec_mul;
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Neg:
        return costs.scalar_op;
      default:
        return 0.0;
    }
}

} // namespace

double
operationCost(const ExprPtr& root, const OpCosts& costs)
{
    double total = 0.0;
    forEachUniqueNode(root,
                      [&](const Expr& e) { total += nodeCost(e, costs); });
    return total;
}

double
cost(const ExprPtr& root, const CostWeights& weights, const OpCosts& costs)
{
    // One DAG walk: the depths are construction-time fields of the root.
    return weights.w_ops * operationCost(root, costs) +
           weights.w_depth * root->circuitDepth() +
           weights.w_mult * root->multDepth();
}

} // namespace chehab::ir
