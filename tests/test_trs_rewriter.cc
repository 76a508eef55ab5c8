/// \file
/// Tests for the rewrite engine: action enumeration (the RL action space)
/// and the greedy best-improvement optimizer (the original CHEHAB
/// baseline of Fig. 12), plus a differential test of both, and of
/// RewriteEnv, against the per-index enumeration they replaced. The
/// quick differential set runs by default; the *Heavy* sweep carries the
/// `slow` ctest label (`ctest -L slow`).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_map>

#include "benchsuite/kernels.h"
#include "dataset/motif_gen.h"
#include "dataset/random_gen.h"
#include "ir/analysis.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "rl/env.h"
#include "support/error.h"
#include "support/rng.h"
#include "trs/rewriter.h"

namespace chehab::trs {
namespace {

using ir::Expr;
using ir::ExprPtr;
using ir::Op;
using ir::parse;

const Ruleset&
ruleset()
{
    static const Ruleset rs = buildChehabRuleset();
    return rs;
}

TEST(EnumerateActionsTest, ListsOnlyApplicableRules)
{
    const ExprPtr program = parse("(+ (* a b) (* a c))");
    const std::vector<RuleMatches> actions =
        enumerateActions(ruleset(), program);
    EXPECT_FALSE(actions.empty());
    for (const RuleMatches& rm : actions) {
        EXPECT_FALSE(rm.locations.empty());
        // Every advertised action must be applicable.
        for (std::size_t ordinal = 0; ordinal < rm.locations.size();
             ++ordinal) {
            EXPECT_NE(ruleset()[static_cast<std::size_t>(rm.rule_index)]
                          .applyAt(program, static_cast<int>(ordinal)),
                      nullptr);
        }
    }
    // comm-factor must be among them.
    bool has_factor = false;
    for (const RuleMatches& rm : actions) {
        if (ruleset()[static_cast<std::size_t>(rm.rule_index)].name() ==
            "comm-factor-ll") {
            has_factor = true;
        }
    }
    EXPECT_TRUE(has_factor);
}

TEST(EnumerateActionsTest, RespectsLocationCap)
{
    // Lots of commutativity sites.
    const ExprPtr program = parse(
        "(+ (+ (+ (+ (+ (+ a b) c) d) e) f) (+ (+ (+ g h) i) j))");
    for (const RuleMatches& rm : enumerateActions(ruleset(), program, 3)) {
        EXPECT_LE(rm.locations.size(), 3u);
    }
}

TEST(GreedyOptimizeTest, SimplifiesIdentities)
{
    const OptimizeResult result =
        greedyOptimize(ruleset(), parse("(+ (* x 1) 0)"));
    EXPECT_EQ(result.program->toString(), "x");
    EXPECT_LT(result.final_cost, result.initial_cost);
    EXPECT_GE(result.steps, 1);
}

TEST(GreedyOptimizeTest, VectorizesIsomorphicCode)
{
    const ExprPtr program = parse("(Vec (+ a b) (+ c d) (+ e f) (+ g h))");
    const OptimizeResult result = greedyOptimize(ruleset(), program);
    // One packed vector addition: cost 1 instead of 4x250.
    EXPECT_LE(result.final_cost, 10.0);
    EXPECT_TRUE(ir::equivalentOn(program, result.program, 8));
}

TEST(GreedyOptimizeTest, ReducesDotProduct)
{
    const ExprPtr program = parse(
        "(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))");
    const OptimizeResult result = greedyOptimize(ruleset(), program);
    EXPECT_TRUE(ir::equivalentOn(program, result.program, 8));
    // Far below the scalar cost of 7 * 250.
    EXPECT_LT(result.final_cost, 400.0);
}

TEST(GreedyOptimizeTest, StopsAtLocalOptimum)
{
    // Already optimal single variable: no steps taken.
    const OptimizeResult result = greedyOptimize(ruleset(), parse("x"));
    EXPECT_EQ(result.steps, 0);
    EXPECT_DOUBLE_EQ(result.final_cost, result.initial_cost);
}

TEST(GreedyOptimizeTest, HonoursStepBudget)
{
    const ExprPtr program = parse(
        "(Vec (+ a b) (+ c d) (+ e f) (+ g h) (+ i j) (+ k l))");
    const OptimizeResult result =
        greedyOptimize(ruleset(), program, {}, {}, /*max_steps=*/1);
    EXPECT_LE(result.steps, 1);
}

TEST(GreedyOptimizeTest, TraceMatchesStepCount)
{
    const OptimizeResult result =
        greedyOptimize(ruleset(), parse("(+ (* x 1) 0)"));
    EXPECT_EQ(static_cast<int>(result.trace.size()), result.steps);
}

TEST(GreedyOptimizeTest, WeightsInfluenceOutcome)
{
    // With heavy depth weights the optimizer should still be sound.
    const ExprPtr program =
        parse("(* a (* b (* c (* d (* e (* f (* g h)))))))");
    const ir::CostWeights heavy{1.0, 150.0, 150.0};
    const OptimizeResult result =
        greedyOptimize(ruleset(), program, heavy);
    EXPECT_TRUE(ir::equivalentOn(program, result.program, 8));
    EXPECT_LE(ir::multiplicativeDepth(result.program),
              ir::multiplicativeDepth(program));
}

// ---------------------------------------------------------------------
// Differential test against the per-index enumeration.
//
// `reference` is the rewriter as it was before the site table, kept
// verbatim as free functions: findMatches fetched every pre-order index
// with subtreeAt and built and typed a whole-tree candidate per match,
// applyAt re-ran findMatches per ordinal, and greedy priced every ordinal
// through applyAt with ir::cost's three whole-tree walks. The new code
// must reproduce it bit for bit: match indices, candidates at every
// ordinal, greedy programs, steps, traces and costs, and RewriteEnv's
// match counts and step results.
// ---------------------------------------------------------------------

namespace reference {

ExprPtr
replaceAll(const ExprPtr& root, const ExprPtr& target,
           const ExprPtr& replacement)
{
    if (ir::equal(root, target)) return replacement;
    // Fast reject: if the target's hash never appears below, reuse.
    if (root->arity() == 0) return root;
    std::vector<ExprPtr> kids;
    kids.reserve(root->arity());
    bool changed = false;
    for (const auto& child : root->children()) {
        ExprPtr mapped = replaceAll(child, target, replacement);
        changed = changed || mapped.get() != child.get();
        kids.push_back(std::move(mapped));
    }
    if (!changed) return root;
    return ir::makeNode(root->op(), std::move(kids), root->name(),
                        root->value(), root->step());
}

bool
wellTyped(const ExprPtr& e)
{
    try {
        ir::typeOf(e);
        return true;
    } catch (const CompileError&) {
        return false;
    }
}

double
nodeCost(const ExprPtr& e, const ir::OpCosts& costs)
{
    if (e->op() == Op::Vec) {
        // Leaf/plain slots are free client-side packing; computed
        // ciphertext slots are materialized with mask/rotate/add.
        double total = 0.0;
        for (const auto& child : e->children()) {
            if (!child->isPlain() && child->op() != Op::Var) {
                total += costs.pack_computed;
            }
        }
        return total;
    }
    if (!ir::isComputeOp(e->op())) return 0.0;
    if (e->isPlain()) return costs.plain_op;
    switch (e->op()) {
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

void
sumUnique(const ExprPtr& e, const ir::OpCosts& costs,
          std::unordered_map<std::size_t, std::vector<ExprPtr>>& seen,
          double& total)
{
    auto& bucket = seen[e->hash()];
    for (const auto& existing : bucket) {
        if (ir::equal(existing, e)) return;
    }
    bucket.push_back(e);
    total += nodeCost(e, costs);
    for (const auto& child : e->children()) {
        sumUnique(child, costs, seen, total);
    }
}

double
operationCost(const ExprPtr& root, const ir::OpCosts& costs)
{
    std::unordered_map<std::size_t, std::vector<ExprPtr>> seen;
    double total = 0.0;
    sumUnique(root, costs, seen, total);
    return total;
}

int
depthImpl(const ExprPtr& e, bool mult_only,
          std::unordered_map<const Expr*, int>& memo)
{
    auto it = memo.find(e.get());
    if (it != memo.end()) return it->second;

    int child_max = 0;
    for (const auto& child : e->children()) {
        child_max = std::max(child_max, depthImpl(child, mult_only, memo));
    }

    int self = 0;
    if (mult_only) {
        const bool is_mul = e->op() == Op::Mul || e->op() == Op::VecMul;
        if (is_mul && !e->isPlain() && !e->child(0)->isPlain() &&
            !e->child(1)->isPlain()) {
            self = 1;
        }
    } else if (ir::isComputeOp(e->op()) && !e->isPlain()) {
        self = 1;
    }

    const int depth = child_max + self;
    memo.emplace(e.get(), depth);
    return depth;
}

int
circuitDepth(const ExprPtr& root)
{
    std::unordered_map<const Expr*, int> memo;
    return depthImpl(root, /*mult_only=*/false, memo);
}

int
multiplicativeDepth(const ExprPtr& root)
{
    std::unordered_map<const Expr*, int> memo;
    return depthImpl(root, /*mult_only=*/true, memo);
}

double
cost(const ExprPtr& root, const ir::CostWeights& weights = {},
     const ir::OpCosts& costs = {})
{
    return weights.w_ops * reference::operationCost(root, costs) +
           weights.w_depth * reference::circuitDepth(root) +
           weights.w_mult * reference::multiplicativeDepth(root);
}

std::vector<int>
findMatches(const RewriteRule& rule, const ExprPtr& root,
            int max_matches = 64)
{
    std::vector<int> matches;
    const int limit = rule.rootOnly() ? 1 : root->numNodes();
    for (int index = 0; index < limit; ++index) {
        if (static_cast<int>(matches.size()) >= max_matches) break;
        const ExprPtr node = ir::subtreeAt(root, index);
        auto rewritten = rule.applyToSubtree(node);
        if (!rewritten) continue;
        // The rewrite must leave the whole program well typed; widening
        // rewrites inside an enclosing operator would not. Rewrites apply
        // DAG-style: every structurally identical occurrence changes.
        const ExprPtr candidate =
            index == 0 ? *rewritten
                       : replaceAll(root, node, *rewritten);
        if (reference::wellTyped(candidate)) matches.push_back(index);
    }
    return matches;
}

ExprPtr
applyAt(const RewriteRule& rule, const ExprPtr& root, int ordinal)
{
    const std::vector<int> matches = findMatches(rule, root, ordinal + 1);
    if (ordinal >= static_cast<int>(matches.size())) return nullptr;
    const int index = matches[ordinal];
    const ExprPtr node = ir::subtreeAt(root, index);
    auto rewritten = rule.applyToSubtree(node);
    if (!rewritten) return nullptr;
    return index == 0 ? *rewritten
                      : replaceAll(root, node, *rewritten);
}

OptimizeResult
greedyOptimize(const Ruleset& ruleset, const ExprPtr& program,
               const ir::CostWeights& weights = {},
               const ir::OpCosts& costs = {}, int max_steps = 75,
               int max_locations = 16)
{
    OptimizeResult result;
    result.program = program;
    result.initial_cost = reference::cost(program, weights, costs);

    double current_cost = result.initial_cost;
    for (int step = 0; step < max_steps; ++step) {
        ExprPtr best;
        double best_cost = current_cost;
        int best_rule = -1;
        for (std::size_t r = 0; r < ruleset.size(); ++r) {
            const std::vector<int> locations =
                findMatches(ruleset[r], result.program, max_locations);
            for (std::size_t ordinal = 0; ordinal < locations.size();
                 ++ordinal) {
                ExprPtr candidate =
                    applyAt(ruleset[r], result.program,
                            static_cast<int>(ordinal));
                if (!candidate) continue;
                const double candidate_cost =
                    reference::cost(candidate, weights, costs);
                if (candidate_cost < best_cost) {
                    best_cost = candidate_cost;
                    best = std::move(candidate);
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

/// RewriteEnv's refreshMatches/step, verbatim over the functions above.
class RewriteEnv
{
  public:
    RewriteEnv(const Ruleset& ruleset, rl::EnvConfig config)
        : ruleset_(&ruleset), config_(config)
    {
        match_counts_.assign(ruleset_->size() + 1, 0);
    }

    void
    reset(ExprPtr program)
    {
        program_ = std::move(program);
        initial_cost_ =
            reference::cost(program_, config_.weights, config_.costs);
        current_cost_ = initial_cost_;
        steps_ = 0;
        refreshMatches();
    }

    const ExprPtr& program() const { return program_; }
    double currentCost() const { return current_cost_; }
    const std::vector<int>& matchCounts() const { return match_counts_; }
    int endAction() const { return static_cast<int>(ruleset_->size()); }

    rl::StepResult
    step(int rule, int location)
    {
        rl::StepResult result;
        ++steps_;
        if (rule == endAction()) {
            result.done = true;
            result.applied = true;
            if (config_.use_terminal_reward) result.reward += terminalReward();
            return result;
        }
        ExprPtr next;
        if (location >= 0 &&
            location < match_counts_[static_cast<std::size_t>(rule)]) {
            next = applyAt((*ruleset_)[static_cast<std::size_t>(rule)],
                           program_, location);
        }
        if (next) {
            const double next_cost =
                reference::cost(next, config_.weights, config_.costs);
            if (config_.use_step_reward && current_cost_ > 0.0) {
                result.reward += (current_cost_ - next_cost) / current_cost_;
            }
            program_ = std::move(next);
            current_cost_ = next_cost;
            result.applied = true;
            refreshMatches();
        } else {
            result.reward += config_.invalid_penalty;
        }
        if (steps_ >= config_.max_steps) {
            result.done = true;
            if (config_.use_terminal_reward) result.reward += terminalReward();
        }
        return result;
    }

  private:
    void
    refreshMatches()
    {
        for (std::size_t r = 0; r < ruleset_->size(); ++r) {
            match_counts_[r] = static_cast<int>(
                findMatches((*ruleset_)[r], program_, config_.max_locations)
                    .size());
        }
        match_counts_[ruleset_->size()] = 1; // END always available.
    }

    double
    terminalReward() const
    {
        if (initial_cost_ <= 0.0) return 0.0;
        return (initial_cost_ - current_cost_) / initial_cost_ *
               config_.terminal_scale;
    }

    const Ruleset* ruleset_;
    rl::EnvConfig config_;
    ExprPtr program_;
    double initial_cost_ = 0.0;
    double current_cost_ = 0.0;
    int steps_ = 0;
    std::vector<int> match_counts_;
};

} // namespace reference

/// One greedy configuration of the sweep.
struct GreedyConfig
{
    ir::CostWeights weights;
    int max_steps = 75;
    int max_locations = 16;
};

std::string
describe(const GreedyConfig& config)
{
    std::ostringstream out;
    out << "weights (" << config.weights.w_ops << ", "
        << config.weights.w_depth << ", " << config.weights.w_mult
        << "), " << config.max_steps << " steps, " << config.max_locations
        << " locations";
    return out.str();
}

/// Collects mismatches against the reference; reports the first few.
class Differ
{
  public:
    explicit Differ(std::string program) : program_(std::move(program)) {}

    template <class T>
    void
    same(const T& got, const T& want, const std::string& what)
    {
        ++checks_;
        if (got == want) return;
        ++mismatches_;
        if (mismatches_ <= 5) {
            ADD_FAILURE() << program_ << ": " << what << " differs from the "
                          << "per-index reference";
        }
    }

    void
    sameProgram(const ExprPtr& got, const ExprPtr& want,
                const std::string& what)
    {
        same(got != nullptr, want != nullptr, what + " (null)");
        if (got && want) {
            same(ir::fingerprint(got), ir::fingerprint(want), what);
        }
    }

    long checks() const { return checks_; }

  private:
    std::string program_;
    long checks_ = 0;
    long mismatches_ = 0;
};

/// Matches per rule at \p cap, the candidate at every ordinal (and none
/// one past the end or before the start), and enumerateActions.
void
checkEnumeration(Differ& differ, const ExprPtr& program, int cap)
{
    const SiteTable sites(program);
    const std::string at = " (cap " + std::to_string(cap) + ")";
    std::vector<RuleMatches> want_actions;
    for (std::size_t r = 0; r < ruleset().size(); ++r) {
        const RewriteRule& rule = ruleset()[r];
        const std::vector<int> want =
            reference::findMatches(rule, program, cap);
        differ.same(rule.findMatches(program, cap), want,
                    rule.name() + " matches" + at);
        if (!want.empty()) {
            want_actions.push_back({static_cast<int>(r), want});
        }
        const std::vector<Match> found = rule.matches(sites, cap);
        std::vector<int> indices;
        for (const Match& match : found) indices.push_back(match.index);
        differ.same(indices, want,
                    rule.name() + " shared-table matches" + at);
        for (std::size_t k = 0; k <= want.size(); ++k) {
            const int ordinal = static_cast<int>(k);
            const ExprPtr expected =
                reference::applyAt(rule, program, ordinal);
            const std::string what =
                rule.name() + " applyAt " + std::to_string(ordinal);
            differ.sameProgram(rule.applyAt(program, ordinal), expected,
                               what);
            if (k < found.size()) {
                differ.sameProgram(found[k].candidate, expected,
                                   what + " candidate");
            }
        }
        differ.same(rule.applyAt(program, -1) == nullptr, true,
                    rule.name() + " applyAt -1");
    }
    const std::vector<RuleMatches> got =
        enumerateActions(ruleset(), program, cap);
    differ.same(got.size(), want_actions.size(), "action count" + at);
    for (std::size_t i = 0; i < std::min(got.size(), want_actions.size());
         ++i) {
        differ.same(got[i].rule_index, want_actions[i].rule_index,
                    "action rule" + at);
        differ.same(got[i].locations, want_actions[i].locations,
                    "action locations" + at);
    }
}

/// Greedy under \p config; returns the reference's optimized program.
ExprPtr
checkGreedy(Differ& differ, const ExprPtr& program,
            const GreedyConfig& config)
{
    const std::string at = " (" + describe(config) + ")";
    const OptimizeResult got =
        greedyOptimize(ruleset(), program, config.weights, {},
                       config.max_steps, config.max_locations);
    const OptimizeResult want = reference::greedyOptimize(
        ruleset(), program, config.weights, {}, config.max_steps,
        config.max_locations);
    differ.sameProgram(got.program, want.program, "greedy program" + at);
    differ.same(got.steps, want.steps, "greedy steps" + at);
    differ.same(got.trace, want.trace, "greedy trace" + at);
    differ.same(got.initial_cost, want.initial_cost, "initial cost" + at);
    differ.same(got.final_cost, want.final_cost, "final cost" + at);
    differ.same(ir::cost(want.program, config.weights),
                reference::cost(want.program, config.weights),
                "cost of the optimized program" + at);
    differ.same(ir::circuitDepth(want.program),
                reference::circuitDepth(want.program), "circuit depth");
    differ.same(ir::multiplicativeDepth(want.program),
                reference::multiplicativeDepth(want.program),
                "multiplicative depth");
    return want.program;
}

/// A seeded episode through both environments: mostly valid actions,
/// some invalid ones (rules without matches, locations past the end),
/// then END.
void
checkEnv(Differ& differ, const ExprPtr& program, std::uint64_t seed,
         int max_locations, int steps)
{
    rl::EnvConfig config;
    config.max_locations = max_locations;
    rl::RewriteEnv env(ruleset(), config);
    reference::RewriteEnv want(ruleset(), config);
    env.reset(program);
    want.reset(program);
    Rng rng(seed);
    for (int step = 0; step < steps && !env.done(); ++step) {
        const std::string at = " at env step " + std::to_string(step);
        differ.same(env.matchCounts(), want.matchCounts(), "match counts" + at);
        std::vector<int> valid;
        for (int r = 0; r < env.numRules(); ++r) {
            if (want.matchCounts()[static_cast<std::size_t>(r)] > 0) {
                valid.push_back(r);
            }
        }
        int rule = 0;
        int location = 0;
        if (valid.empty() || rng.chance(0.15)) {
            rule = static_cast<int>(rng.pickIndex(ruleset().size()));
            location = static_cast<int>(rng.uniformInt(4)) - 1;
        } else {
            rule = valid[rng.pickIndex(valid.size())];
            location = static_cast<int>(rng.pickIndex(static_cast<std::size_t>(
                want.matchCounts()[static_cast<std::size_t>(rule)])));
        }
        const rl::StepResult got_step = env.step(rule, location);
        const rl::StepResult want_step = want.step(rule, location);
        differ.same(got_step.reward, want_step.reward, "reward" + at);
        differ.same(got_step.applied, want_step.applied, "applied" + at);
        differ.same(got_step.done, want_step.done, "done" + at);
        differ.same(env.currentCost(), want.currentCost(), "cost" + at);
        differ.sameProgram(env.program(), want.program(), "program" + at);
    }
    if (!env.done()) {
        const rl::StepResult got_end = env.step(env.endAction(), 0);
        const rl::StepResult want_end = want.step(want.endAction(), 0);
        differ.same(got_end.reward, want_end.reward, "END reward");
        differ.same(got_end.done, want_end.done, "END done");
    }
}

struct NamedProgram
{
    std::string name;
    ExprPtr program;
};

/// The suite kernels plus \p motifs motif programs (seed 12345) and
/// \p randoms well-typed random programs (seed 777).
std::vector<NamedProgram>
differentialSet(const std::vector<benchsuite::Kernel>& kernels, int motifs,
                int randoms, dataset::RandomGenConfig random_config = {})
{
    std::vector<NamedProgram> set;
    for (const benchsuite::Kernel& kernel : kernels) {
        set.push_back({kernel.name, kernel.program});
    }
    dataset::MotifSynthesizer motif(12345);
    for (int i = 0; i < motifs; ++i) {
        set.push_back({"motif " + std::to_string(i), motif.generate()});
    }
    dataset::RandomProgramGenerator random(777, random_config);
    for (int i = 0; i < randoms;) {
        const ExprPtr program = random.generate();
        if (!ir::wellTyped(program)) continue;
        set.push_back({"random " + std::to_string(i++), program});
    }
    return set;
}

const std::vector<GreedyConfig>&
greedyConfigs()
{
    static const std::vector<GreedyConfig> configs = {
        {{1.0, 1.0, 1.0}, 75, 16},
        {{1.0, 0.0, 5.0}, 10, 3},
        {{1.0, 1.0, 1.0}, 75, 1},
    };
    return configs;
}

/// Checks every program of \p set: the enumeration on the source;
/// greedy, and the enumeration on the optimized program (a DAG whose
/// tree expansion repeats shared subtrees); and an env episode of
/// \p env_steps. With \p every_config each program runs every cap and
/// greedy config; otherwise program i runs cap and config i mod 3,
/// which still covers each one.
void
runDifferential(const std::vector<NamedProgram>& set, bool every_config,
                int env_steps)
{
    const std::vector<int> caps = {1, 3, 16};
    long checks = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
        const NamedProgram& entry = set[i];
        Differ differ(entry.name);
        for (std::size_t c = 0; c < caps.size(); ++c) {
            if (!every_config && c != i % caps.size()) continue;
            const GreedyConfig& config = greedyConfigs()[c];
            checkEnumeration(differ, entry.program, caps[c]);
            checkEnumeration(differ, checkGreedy(differ, entry.program, config),
                             config.max_locations);
            checkEnv(differ, entry.program, 1000 + i, caps[c], env_steps);
        }
        checks += differ.checks();
    }
    EXPECT_GT(checks, 0);
}

TEST(RewriterDifferentialTest, SuiteMotifAndRandomProgramsMatchReference)
{
    std::vector<benchsuite::Kernel> kernels = benchsuite::porcupineSuite(8);
    for (benchsuite::Kernel& kernel : benchsuite::coyoteSuite()) {
        kernels.push_back(std::move(kernel));
    }
    // The per-index reference is quadratic in matches: keep the random
    // programs small so the per-push variant stays within seconds.
    dataset::RandomGenConfig small;
    small.max_depth = 5;
    small.max_width = 4;
    runDifferential(differentialSet(kernels, 100, 100, small),
                    /*every_config=*/false, 3);
}

TEST(RewriterDifferentialTest, IllTypedProgramsMatchReference)
{
    // A candidate is a match only if the whole program types, so on an
    // ill-typed program only rewrites that remove the bad part match.
    // The generators only produce well-typed programs; these exercise
    // the rewriter's reuse of the untouched subtrees' stored types.
    const char* programs[] = {
        "(Vec (+ a 0) (VecNeg (VecNeg x)))",
        "(+ (Vec a b) (* c 1))",
        "(VecAdd (Vec (* a 1) b) (Vec c d e))",
        "(Vec (Vec a b) (+ x 0) (- (- y)))",
        "(* (+ (<< (Vec a b) 0) 1) (+ (* p q) (* p r)))",
    };
    for (const char* text : programs) {
        const ExprPtr program = parse(text);
        ASSERT_FALSE(ir::wellTyped(program)) << text;
        Differ differ(text);
        for (const int cap : {1, 16}) checkEnumeration(differ, program, cap);
        checkGreedy(differ, program, greedyConfigs()[0]);
    }
    // The first program's double negation is the only fix.
    EXPECT_EQ(ruleset()[static_cast<std::size_t>(
                            ruleset().indexOf("vecneg-neg"))]
                  .findMatches(parse(programs[0])),
              std::vector<int>{4});
    EXPECT_TRUE(ruleset()[static_cast<std::size_t>(
                              ruleset().indexOf("add-identity-r"))]
                    .findMatches(parse(programs[0]))
                    .empty());
}

TEST(RewriterDifferentialHeavyTest, FullSuiteAndGeneratorSweepMatchReference)
{
    runDifferential(differentialSet(benchsuite::fullSuite(16, 6), 300, 300),
                    /*every_config=*/true, 12);
}

} // namespace
} // namespace chehab::trs
