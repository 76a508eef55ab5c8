/// \file
/// The match sites of one program: what every rule of one rewrite step
/// walks (action enumeration, greedy pricing, the RL environment's action
/// mask), built once per program and shared by all rules.
#pragma once

#include <cstddef>
#include <vector>

#include "ir/analysis.h"
#include "ir/expr.h"
#include "support/flat_hash_index.h"

namespace chehab::trs {

/// The distinct node objects of a program ("slots", numbered in order of
/// first pre-order occurrence) and its pre-order positions as a sequence
/// of visits.
///
/// Rewriting produces DAGs: a rewrite replaces every structurally
/// identical occurrence by one shared node, so after a few vectorizing
/// steps a program's tree expansion (the positions a pre-order index
/// counts) is many times its number of node objects. The table walks each
/// node object once. A node object that occurs again is a single visit
/// covering its whole subtree, whose positions repeat those of its first
/// occurrence.
///
/// Per slot it also keeps what an incremental rewrite needs: the
/// children's slots, a structural class (structurally equal slots share
/// one) and the type. The table is immutable after construction, so any
/// number of rules and threads may read one table.
class SiteTable
{
  public:
    /// One step of the pre-order walk.
    struct Visit
    {
        int index = 0;     ///< Pre-order position of the node.
        int slot = 0;      ///< Which distinct node object sits there.
        /// First occurrence of the slot. A later occurrence covers the
        /// slot's whole subtree: node(slot)->numNodes() positions that
        /// repeat those starting at firstIndex(slot).
        bool first = true;
    };

    /// Buffers for rewrite(); one per caller, reused across calls.
    struct Buffers
    {
        std::vector<char> dirty;
        std::vector<ir::ExprPtr> built;
        std::vector<ir::TypeInfo> types;
    };

    explicit SiteTable(const ir::ExprPtr& root);

    int numSlots() const { return static_cast<int>(nodes_.size()); }
    const ir::ExprPtr& node(int slot) const { return nodes_[slot]; }
    int firstIndex(int slot) const { return first_index_[slot]; }
    const std::vector<Visit>& visits() const { return visits_; }

    /// The whole program with every node structurally equal to
    /// node(\p slot) replaced by \p replacement, or nullptr if that
    /// program is ill typed. Rewriting is DAG-style: the compiler treats
    /// identical subtrees as one shared node, so a rewrite applies to the
    /// shared node, not to one syntactic occurrence. Only ancestors of the
    /// replaced nodes are rebuilt and typed, each once; subtrees smaller
    /// or shallower than the target are never entered.
    ir::ExprPtr rewrite(int slot, const ir::ExprPtr& replacement,
                        Buffers& buffers) const;

  private:
    int visit(const ir::ExprPtr& node, int& index);
    int slotOf(const ir::Expr* node) const;
    bool sameShape(int a, int b) const;
    bool typeOfNew(const ir::ExprPtr& e, ir::TypeInfo& out) const;

    std::vector<ir::ExprPtr> nodes_;     ///< Node object per slot; 0 = root.
    std::vector<int> first_index_;       ///< First pre-order position.
    std::vector<int> kid_begin_;         ///< Children: kids_[begin, +arity).
    std::vector<int> kids_;              ///< Child slots, per parent.
    std::vector<int> post_order_;        ///< Slots, children first.
    std::vector<int> class_;             ///< Lowest structurally equal slot.
    std::vector<ir::TypeInfo> types_;    ///< Type per slot...
    std::vector<char> typed_;            ///< ...valid iff the slot types.
    std::vector<Visit> visits_;
    FlatHashIndex<int> by_object_;       ///< Node address -> slot.
    FlatHashIndex<int> by_shape_;        ///< Structure -> class slot.
};

} // namespace chehab::trs
