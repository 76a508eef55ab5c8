/// \file
/// The rewrite-optimization MDP (§5): states are programs, actions are
/// (rule, location) pairs plus END, rewards come from the FHE-aware cost
/// function (§5.3) as an immediate step reward and a terminal reward.
#pragma once

#include <vector>

#include "ir/cost_model.h"
#include "ir/expr.h"
#include "trs/rewriter.h"
#include "trs/ruleset.h"

namespace chehab::rl {

/// Environment configuration (reward ablation switches included).
struct EnvConfig
{
    int max_steps = 75;       ///< Episode cap (App. G).
    int max_locations = 16;   ///< Location head width.
    ir::CostWeights weights;  ///< (w_ops, w_depth, w_mult); default (1,1,1).
    ir::OpCosts costs;
    bool use_step_reward = true;     ///< R_step after each action.
    bool use_terminal_reward = true; ///< R_final at episode end.
    double terminal_scale = 100.0;   ///< The x100 of §5.3.2.
    double invalid_penalty = -0.05;  ///< Selecting a non-matching action.
};

/// One environment step outcome.
struct StepResult
{
    double reward = 0.0;
    bool done = false;
    bool applied = false; ///< False if the action did not match.
};

/// Single-program rewrite episode. Action indices 0..numRules()-1 are
/// rewrite rules; numRules() is END.
class RewriteEnv
{
  public:
    RewriteEnv(const trs::Ruleset& ruleset, EnvConfig config = {});

    /// Begin a new episode on \p program.
    void reset(ir::ExprPtr program);

    const ir::ExprPtr& program() const { return program_; }
    int stepsTaken() const { return steps_; }
    bool done() const { return done_; }

    int numRules() const { return static_cast<int>(ruleset_->size()); }
    int endAction() const { return numRules(); }
    int maxLocations() const { return config_.max_locations; }
    const EnvConfig& config() const { return config_; }

    double initialCost() const { return initial_cost_; }
    double currentCost() const { return current_cost_; }

    /// Match count per rule for the current state (0 = inapplicable).
    /// Index numRules() (END) is always 1.
    const std::vector<int>& matchCounts() const { return match_counts_; }

    /// Apply \p rule at match ordinal \p location, or END. Returns the
    /// reward and whether the episode ended.
    StepResult step(int rule, int location);

  private:
    void refreshMatches();
    double terminalReward() const;

    const trs::Ruleset* ruleset_;
    EnvConfig config_;
    ir::ExprPtr program_;
    double initial_cost_ = 0.0;
    double current_cost_ = 0.0;
    int steps_ = 0;
    bool done_ = true;
    std::vector<int> match_counts_;
    /// Per rule, the program each match of the current state rewrites to
    /// (one site-table walk per state; step() takes its result from here).
    std::vector<std::vector<ir::ExprPtr>> candidates_;
};

} // namespace chehab::rl
