#include "trs/site_table.h"

#include <cstdint>

namespace chehab::trs {

using ir::Expr;
using ir::ExprPtr;
using ir::TypeInfo;

namespace {

/// Types \p node by the typing rule from its children's types, which
/// \p kid_type(i, out) supplies (returning false for an ill-typed child).
template <class KidType>
bool
typeNode(const Expr& node, KidType kid_type, TypeInfo& out)
{
    TypeInfo pair[2];
    std::vector<TypeInfo> wide;
    TypeInfo* kids = pair;
    if (node.arity() > 2) {
        wide.resize(node.arity());
        kids = wide.data();
    }
    for (std::size_t i = 0; i < node.arity(); ++i) {
        if (!kid_type(i, kids[i])) return false;
    }
    return ir::typeFromChildren(node, kids, out);
}

std::size_t
addressHash(const Expr* node)
{
    return static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(node));
}

} // namespace

SiteTable::SiteTable(const ExprPtr& root)
{
    int index = 0;
    visit(root, index);
}

int
SiteTable::slotOf(const Expr* node) const
{
    const int* slot = by_object_.find(
        addressHash(node), [&](int s) { return nodes_[s].get() == node; });
    return slot ? *slot : -1;
}

int
SiteTable::visit(const ExprPtr& node, int& index)
{
    const int seen = slotOf(node.get());
    if (seen >= 0) {
        visits_.push_back({index, seen, false});
        index += node->numNodes();
        return seen;
    }
    const int slot = numSlots();
    by_object_.insert(addressHash(node.get()), slot);
    visits_.push_back({index, slot, true});
    nodes_.push_back(node);
    first_index_.push_back(index++);
    const std::size_t begin = kids_.size();
    kid_begin_.push_back(static_cast<int>(begin));
    kids_.resize(kids_.size() + node->arity());
    class_.push_back(slot);
    types_.emplace_back();
    typed_.push_back(0);
    for (std::size_t i = 0; i < node->arity(); ++i) {
        kids_[begin + i] = visit(node->child(i), index);
    }

    // Children are complete, so their classes and types are known.
    const int* same =
        by_shape_.find(node->hash(), [&](int c) { return sameShape(c, slot); });
    if (same) {
        class_[slot] = *same;
    } else {
        by_shape_.insert(node->hash(), slot);
    }
    typed_[slot] = typeNode(
        *node,
        [&](std::size_t i, TypeInfo& out) {
            const int kid = kids_[begin + i];
            out = types_[kid];
            return typed_[kid] != 0;
        },
        types_[slot]);
    post_order_.push_back(slot);
    return slot;
}

bool
SiteTable::sameShape(int a, int b) const
{
    const Expr& x = *nodes_[a];
    const Expr& y = *nodes_[b];
    if (x.op() != y.op() || x.arity() != y.arity() || x.name() != y.name() ||
        x.value() != y.value() || x.step() != y.step()) {
        return false;
    }
    // Children were classified first: equal structure is equal classes.
    for (std::size_t i = 0; i < x.arity(); ++i) {
        if (class_[kids_[kid_begin_[a] + i]] !=
            class_[kids_[kid_begin_[b] + i]]) {
            return false;
        }
    }
    return true;
}

bool
SiteTable::typeOfNew(const ExprPtr& e, TypeInfo& out) const
{
    const int slot = slotOf(e.get());
    if (slot >= 0) {
        out = types_[slot];
        return typed_[slot] != 0;
    }
    return typeNode(
        *e,
        [&](std::size_t i, TypeInfo& kid) {
            return typeOfNew(e->child(i), kid);
        },
        out);
}

ExprPtr
SiteTable::rewrite(int slot, const ExprPtr& replacement,
                   Buffers& buffers) const
{
    TypeInfo replacement_type;
    if (!typeOfNew(replacement, replacement_type)) return nullptr;

    const std::size_t n = nodes_.size();
    buffers.dirty.resize(n);
    buffers.built.resize(n);
    buffers.types.resize(n);
    const Expr& target = *nodes_[slot];
    const int target_class = class_[slot];

    // Children before parents: a node is dirty (rebuilt) iff it is an
    // occurrence of the target or has a dirty child. Every dirty node is
    // reachable from the root of the result, since no occurrence of the
    // target contains another.
    for (const int s : post_order_) {
        const Expr& node = *nodes_[s];
        buffers.dirty[s] = 0;
        // A subtree smaller or shallower than the target cannot hold it.
        if (node.numNodes() < target.numNodes() ||
            node.height() < target.height()) {
            continue;
        }
        if (class_[s] == target_class) {
            buffers.dirty[s] = 1;
            buffers.built[s] = replacement;
            buffers.types[s] = replacement_type;
            continue;
        }
        const int* kid = &kids_[kid_begin_[s]];
        const auto fresh = [&](std::size_t i) {
            return buffers.dirty[kid[i]] != 0;
        };
        bool changed = false;
        for (std::size_t i = 0; i < node.arity() && !changed; ++i) {
            changed = fresh(i);
        }
        if (!changed) continue;
        buffers.dirty[s] = 1;

        const bool typed = typeNode(
            node,
            [&](std::size_t i, TypeInfo& out) {
                if (fresh(i)) {
                    out = buffers.types[kid[i]];
                    return true;
                }
                out = types_[kid[i]];
                return typed_[kid[i]] != 0;
            },
            buffers.types[s]);
        // Every dirty node is in the result, so one ill-typed node makes
        // the whole program ill typed.
        if (!typed) return nullptr;

        std::vector<ExprPtr> children;
        children.reserve(node.arity());
        for (std::size_t i = 0; i < node.arity(); ++i) {
            children.push_back(fresh(i) ? buffers.built[kid[i]]
                                        : nodes_[kid[i]]);
        }
        buffers.built[s] = ir::makeNode(node.op(), std::move(children),
                                        node.name(), node.value(),
                                        node.step());
    }
    return buffers.built[0];
}

} // namespace chehab::trs
