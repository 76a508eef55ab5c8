#include "trs/rule.h"

#include <algorithm>

#include "ir/parser.h"

namespace chehab::trs {

using ir::ExprPtr;

RewriteRule::RewriteRule(std::string name, const std::string& lhs_text,
                         const std::string& rhs_text, RuleKind kind,
                         Guard guard)
    : name_(std::move(name)),
      kind_(kind),
      lhs_(ir::parse(lhs_text)),
      rhs_(ir::parse(rhs_text)),
      guard_(std::move(guard))
{}

RewriteRule::RewriteRule(std::string name, Rewriter rewriter, RuleKind kind,
                         bool root_only)
    : name_(std::move(name)),
      kind_(kind),
      root_only_(root_only),
      rewriter_(std::move(rewriter))
{}

std::optional<ExprPtr>
RewriteRule::applyToSubtree(const ExprPtr& node) const
{
    if (rewriter_) return rewriter_(node);
    Bindings bindings;
    if (!matchPattern(lhs_, node, bindings)) return std::nullopt;
    if (guard_ && !guard_(bindings, node)) return std::nullopt;
    return substitute(rhs_, bindings);
}

std::vector<Match>
RewriteRule::matches(const SiteTable& sites, int max_matches) const
{
    std::vector<Match> found;
    if (max_matches <= 0) return found;
    const std::size_t limit = static_cast<std::size_t>(max_matches);
    const std::vector<SiteTable::Visit>& visits = sites.visits();
    // Visit 0 is the root, the only site of a root-only rule.
    const std::size_t end = root_only_ ? 1 : visits.size();
    SiteTable::Buffers buffers;
    for (std::size_t v = 0; v < end && found.size() < limit; ++v) {
        const SiteTable::Visit& visit = visits[v];
        if (visit.first) {
            const auto rewritten = applyToSubtree(sites.node(visit.slot));
            if (!rewritten) continue;
            // The rewrite must leave the whole program well typed;
            // widening rewrites inside an enclosing operator would not.
            ExprPtr candidate = sites.rewrite(visit.slot, *rewritten, buffers);
            if (candidate) found.push_back({visit.index, std::move(candidate)});
            continue;
        }
        // A repeated node object: its subtree's positions repeat those of
        // the first occurrence, whose matches are all in `found` already
        // (it lies wholly before this visit, and the cap is not reached).
        const int first = sites.firstIndex(visit.slot);
        const int last = first + sites.node(visit.slot)->numNodes();
        const auto at = [&](int index) {
            return static_cast<std::size_t>(
                std::lower_bound(found.begin(), found.end(), index,
                                 [](const Match& m, int i) {
                                     return m.index < i;
                                 }) -
                found.begin());
        };
        const std::size_t hi = at(last);
        for (std::size_t k = at(first); k < hi && found.size() < limit; ++k) {
            Match repeat = found[k];
            repeat.index += visit.index - first;
            repeat.repeat = true;
            found.push_back(std::move(repeat));
        }
    }
    return found;
}

std::vector<int>
RewriteRule::findMatches(const ExprPtr& root, int max_matches) const
{
    std::vector<int> indices;
    for (const Match& match : matches(SiteTable(root), max_matches)) {
        indices.push_back(match.index);
    }
    return indices;
}

ir::ExprPtr
RewriteRule::applyAt(const ExprPtr& root, int ordinal) const
{
    // A program has fewer matches than positions; this also keeps
    // ordinal + 1 from overflowing.
    if (ordinal < 0 || ordinal >= root->numNodes()) return nullptr;
    std::vector<Match> found = matches(SiteTable(root), ordinal + 1);
    if (ordinal >= static_cast<int>(found.size())) return nullptr;
    return std::move(found[static_cast<std::size_t>(ordinal)].candidate);
}

} // namespace chehab::trs
