/// \file
/// Rewrite engine utilities on top of the rule set: action enumeration
/// for the RL environment, and the greedy best-improvement optimizer that
/// implements the *original* (pre-RL) CHEHAB TRS used as a baseline in
/// Fig. 12.
///
/// Both walk one SiteTable per program (per step for greedyOptimize)
/// that every rule shares, so a rewrite step costs one pass per rule over
/// the distinct node objects, not one over the tree expansion.
///
/// Thread-safety: both functions are pure — no statics, no RNG, no
/// mutation of the ruleset or program, all walk state local to the call —
/// so any number of threads may run them concurrently against one shared
/// Ruleset. greedyOptimize is deterministic (ties break on rule order,
/// then match ordinal).
#pragma once

#include <vector>

#include "ir/cost_model.h"
#include "ir/expr.h"
#include "trs/ruleset.h"

namespace chehab::trs {

/// Per-rule applicability snapshot for the current program.
struct RuleMatches
{
    int rule_index = 0;
    std::vector<int> locations; ///< Pre-order indices of valid matches.
};

/// Enumerate, for every rule, the locations where it currently applies.
/// Rules with no matches are omitted. \p max_locations bounds the match
/// list per rule (the location head of the policy is fixed-width).
std::vector<RuleMatches> enumerateActions(const Ruleset& ruleset,
                                          const ir::ExprPtr& program,
                                          int max_locations = 16);

/// Result of an optimization run.
struct OptimizeResult
{
    ir::ExprPtr program;             ///< Final rewritten program.
    double initial_cost = 0.0;
    double final_cost = 0.0;
    int steps = 0;                   ///< Rewrites actually applied.
    std::vector<std::string> trace;  ///< Rule names in application order.
};

/// Greedy best-improvement TRS: at every step evaluates all applicable
/// (rule, location) pairs, the first \p max_locations of each rule, and
/// applies the one with the largest strict cost decrease; stops when no
/// rewrite improves the cost or after \p max_steps. This is
/// deterministic and corresponds to the original CHEHAB compiler's
/// heuristic rule application.
OptimizeResult greedyOptimize(const Ruleset& ruleset,
                              const ir::ExprPtr& program,
                              const ir::CostWeights& weights = {},
                              const ir::OpCosts& costs = {},
                              int max_steps = 75,
                              int max_locations = 16);

} // namespace chehab::trs
