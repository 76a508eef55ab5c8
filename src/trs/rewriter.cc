#include "trs/rewriter.h"

namespace chehab::trs {

using ir::ExprPtr;

std::vector<RuleMatches>
enumerateActions(const Ruleset& ruleset, const ExprPtr& program,
                 int max_locations)
{
    const SiteTable sites(program);
    std::vector<RuleMatches> actions;
    for (std::size_t r = 0; r < ruleset.size(); ++r) {
        const std::vector<Match> found =
            ruleset[r].matches(sites, max_locations);
        if (found.empty()) continue;
        RuleMatches& action = actions.emplace_back();
        action.rule_index = static_cast<int>(r);
        for (const Match& match : found) {
            action.locations.push_back(match.index);
        }
    }
    return actions;
}

OptimizeResult
greedyOptimize(const Ruleset& ruleset, const ExprPtr& program,
               const ir::CostWeights& weights, const ir::OpCosts& costs,
               int max_steps, int max_locations)
{
    OptimizeResult result;
    result.program = program;
    result.initial_cost = ir::cost(program, weights, costs);

    double current_cost = result.initial_cost;
    for (int step = 0; step < max_steps; ++step) {
        const SiteTable sites(result.program);
        ExprPtr best;
        double best_cost = current_cost;
        int best_rule = -1;
        for (std::size_t r = 0; r < ruleset.size(); ++r) {
            for (Match& match : ruleset[r].matches(sites, max_locations)) {
                // A repeat is an earlier match's candidate: it costs the
                // same, and ties keep the earlier one.
                if (match.repeat) continue;
                const double candidate_cost =
                    ir::cost(match.candidate, weights, costs);
                if (candidate_cost < best_cost) {
                    best_cost = candidate_cost;
                    best = std::move(match.candidate);
                    best_rule = static_cast<int>(r);
                }
            }
        }
        if (!best) break; // Local optimum: no strict improvement available.
        result.program = std::move(best);
        current_cost = best_cost;
        ++result.steps;
        result.trace.push_back(ruleset[static_cast<std::size_t>(best_rule)]
                                   .name());
    }
    result.final_cost = current_cost;
    return result;
}

} // namespace chehab::trs
