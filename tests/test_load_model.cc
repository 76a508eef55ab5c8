/// \file
/// Tests for the timer-augmented load model and the scheduling it
/// drives: EWMA update math, cold-start fallback to the static
/// estimate, consolidation share advice, determinism of cost-driven
/// consolidation (input-order invariance, heavy-group spreading, and
/// 1-vs-8-worker bit-identical outputs at the service level), and the
/// model's counter-consistency invariants under concurrent hammering
/// (run in CI's ThreadSanitizer job).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "benchsuite/kernels.h"
#include "ir/parser.h"
#include "service/batch_planner.h"
#include "service/compile_service.h"
#include "service/load_model.h"

namespace chehab::service {
namespace {

CacheKey
compileKey(std::uint64_t id)
{
    CacheKey key;
    key.source.hi = id;
    key.source.lo = ~id;
    key.pipeline = id * 31 + 7;
    return key;
}

BatchGroupKey
groupKey(std::uint64_t id, std::uint64_t params_hash = 0x50u)
{
    BatchGroupKey key;
    key.compile = compileKey(id);
    key.params_hash = params_hash;
    key.key_budget = 0;
    return key;
}

TEST(LoadModelTest, EwmaUpdateMath)
{
    const double alpha = kLoadModelAlpha;
    LoadModel model;
    const CacheKey key = compileKey(1);

    // First observation seeds the average; later ones blend with
    // alpha * sample + (1 - alpha) * ewma.
    model.observeCompile(key, 100.0, 2.0);
    EXPECT_DOUBLE_EQ(model.predictCompileSeconds(key, 100.0), 2.0);
    model.observeCompile(key, 100.0, 4.0);
    const double second = alpha * 4.0 + (1.0 - alpha) * 2.0;
    EXPECT_DOUBLE_EQ(model.predictCompileSeconds(key, 100.0), second);
    model.observeCompile(key, 100.0, 2.0);
    EXPECT_DOUBLE_EQ(model.predictCompileSeconds(key, 100.0),
                     alpha * 2.0 + (1.0 - alpha) * second);

    // Run profiles are independent of compile profiles.
    const BatchGroupKey run = groupKey(1);
    model.observeRun(run, 100.0, 1.0, 0.25);
    EXPECT_DOUBLE_EQ(model.predictRunSeconds(run, 100.0), 1.0);
    model.observeRun(run, 100.0, 3.0, 0.25);
    EXPECT_DOUBLE_EQ(model.predictRunSeconds(run, 100.0),
                     alpha * 3.0 + (1.0 - alpha) * 1.0);
}

TEST(LoadModelTest, ColdStartFallsBackToScaledStaticEstimate)
{
    LoadModel model;

    // No observations at all: the seed ratio scales the static cost,
    // so cold predictions preserve the static LPT ordering.
    const double heavy =
        model.predictCompileSeconds(compileKey(1), 1000.0);
    const double light = model.predictCompileSeconds(compileKey(2), 10.0);
    EXPECT_DOUBLE_EQ(heavy, 1000.0 * kLoadModelSeedSecondsPerCost);
    EXPECT_DOUBLE_EQ(light, 10.0 * kLoadModelSeedSecondsPerCost);
    EXPECT_GT(heavy, light);

    // One measured compile calibrates the global seconds-per-cost
    // ratio; a *different* (still cold) key now predicts with it.
    model.observeCompile(compileKey(1), 100.0, 2.0); // ratio -> 0.02
    EXPECT_DOUBLE_EQ(model.predictCompileSeconds(compileKey(3), 50.0),
                     50.0 * (2.0 / 100.0));

    const LoadModelSnapshot snap = model.snapshot();
    EXPECT_EQ(snap.cold_predictions, 3u);
    EXPECT_EQ(snap.warm_predictions, 0u);
    EXPECT_EQ(snap.compile_observations, 1u);
}

TEST(LoadModelTest, RowShareAdvicePricesAgainstCheapestExecution)
{
    ASSERT_EQ(kLoadModelMergeCostFactor, 4.0);
    LoadModel model;
    const std::uint64_t params = 0x77u;

    // Cold: no measured floor, always share.
    EXPECT_TRUE(model.preferRowShare(params, 123.0));

    model.observeRun(groupKey(1, params), 10.0, 0.010, 0.004);
    model.observeRun(groupKey(2, params), 10.0, 0.002, 0.001);
    // Floor is the cheapest measured execution (2ms): groups predicted
    // beyond 4x that are execution-dominated.
    EXPECT_TRUE(model.preferRowShare(params, 0.008));
    EXPECT_FALSE(model.preferRowShare(params, 0.009));
    // Other parameter families are unaffected.
    EXPECT_TRUE(model.preferRowShare(0x78u, 0.009));
}

/// Synthetic single-member group for consolidation tests (no lanes —
/// consolidateGroups only reads counts, strides, plans and keys).
BatchPlanner::Group
makeGroup(std::uint64_t id, int stride, int lanes, double predicted,
          int row_slots = 64, int lanes_cap = 0)
{
    BatchPlanner::Group group;
    group.key.params_hash = 0x50u;
    group.key.key_budget = 0;
    group.row_slots = row_slots;
    group.lanes_cap = lanes_cap;
    group.stride = stride;
    group.total_lanes = lanes;
    group.estimate_sum = predicted;
    group.predicted_sum = predicted;
    BatchPlanner::GroupMember member;
    member.compile = compileKey(id);
    member.min_stride = stride;
    group.members.push_back(std::move(member));
    return group;
}

std::vector<std::vector<std::uint64_t>>
rowLayout(const std::vector<BatchPlanner::Group>& rows)
{
    std::vector<std::vector<std::uint64_t>> layout;
    for (const BatchPlanner::Group& row : rows) {
        std::vector<std::uint64_t> ids;
        for (const BatchPlanner::GroupMember& member : row.members) {
            ids.push_back(member.compile.source.hi);
        }
        std::sort(ids.begin(), ids.end());
        layout.push_back(std::move(ids));
    }
    return layout;
}

ConsolidatePolicy
costPolicy(int parallelism, double heavy_threshold)
{
    ConsolidatePolicy policy;
    policy.parallelism = parallelism;
    policy.shareable = [heavy_threshold](const BatchPlanner::Group& g) {
        return g.predicted_sum <= heavy_threshold;
    };
    return policy;
}

TEST(LoadModelTest, CostDrivenConsolidationIsOrderInvariant)
{
    // The same flushed set in any arrival order must produce the same
    // rows: consolidation is a pure function of (groups, predictions),
    // independent of interleaving — the property that keeps packed
    // noise accounting reproducible for a fixed composition.
    auto makeSet = [] {
        std::vector<BatchPlanner::Group> groups;
        groups.push_back(makeGroup(1, 8, 2, 10.0));
        groups.push_back(makeGroup(2, 8, 2, 9.0));
        groups.push_back(makeGroup(3, 4, 2, 0.5));
        groups.push_back(makeGroup(4, 4, 2, 0.25));
        groups.push_back(makeGroup(5, 2, 2, 0.125));
        return groups;
    };
    const ConsolidatePolicy policy = costPolicy(4, 1.0);
    std::vector<BatchPlanner::Group> base = makeSet();
    const auto reference =
        rowLayout(consolidateGroups(makeSet(), policy));
    std::sort(base.begin(), base.end(),
              [](const BatchPlanner::Group& a,
                 const BatchPlanner::Group& b) {
                  return a.members.front().compile.source.hi <
                         b.members.front().compile.source.hi;
              });
    do {
        std::vector<BatchPlanner::Group> permuted;
        for (const BatchPlanner::Group& group : base) {
            permuted.push_back(makeGroup(
                group.members.front().compile.source.hi, group.stride,
                group.total_lanes, group.predicted_sum));
        }
        EXPECT_EQ(rowLayout(consolidateGroups(std::move(permuted),
                                              policy)),
                  reference);
    } while (std::next_permutation(
        base.begin(), base.end(),
        [](const BatchPlanner::Group& a, const BatchPlanner::Group& b) {
            return a.members.front().compile.source.hi <
                   b.members.front().compile.source.hi;
        }));
}

TEST(LoadModelTest, CostDrivenConsolidationSpreadsHeavyGroups)
{
    // Two execution-dominated groups and two overhead-dominated ones,
    // all row-compatible. With share advice the heavies take their own
    // rows while worker slots remain, the lights balance across them.
    // With no share advice every group is shareable, so the cost rule
    // packs them all into one row.
    auto makeSet = [] {
        std::vector<BatchPlanner::Group> groups;
        groups.push_back(makeGroup(1, 8, 2, 10.0));
        groups.push_back(makeGroup(2, 8, 2, 9.0));
        groups.push_back(makeGroup(3, 8, 2, 0.5));
        groups.push_back(makeGroup(4, 8, 2, 0.25));
        return groups;
    };

    const auto cost_rows =
        consolidateGroups(makeSet(), costPolicy(/*parallelism=*/4, 1.0));
    ASSERT_EQ(cost_rows.size(), 2u);
    // Heaviest first: each heavy seeds its own row; the lights then
    // best-fit onto the least-loaded row — both land on group 2's row
    // (9 + 0.5 + 0.25 = 9.75 stays below group 1's 10), balancing the
    // predicted makespan instead of piling onto the first fit.
    EXPECT_EQ(rowLayout(cost_rows),
              (std::vector<std::vector<std::uint64_t>>{{1}, {2, 3, 4}}));
    EXPECT_NEAR(cost_rows[0].predicted_sum, 10.0, 1e-12);
    EXPECT_NEAR(cost_rows[1].predicted_sum, 9.75, 1e-12);

    const auto shared_rows = consolidateGroups(makeSet(), {});
    ASSERT_EQ(shared_rows.size(), 1u);
    EXPECT_EQ(shared_rows[0].total_lanes, 8);

    // With no worker slot free, even heavies pack (serialization is
    // inevitable; sharing at least saves the row overhead).
    const auto saturated =
        consolidateGroups(makeSet(), costPolicy(/*parallelism=*/1, 1.0));
    ASSERT_EQ(saturated.size(), 1u);
}

std::string
dotSource(int n)
{
    std::string sum;
    for (int i = 0; i < n; ++i) {
        const std::string term = "(* a" + std::to_string(i) + " b" +
                                 std::to_string(i) + ")";
        sum = i == 0 ? term : "(+ " + sum + " " + term + ")";
    }
    return sum;
}

RunRequest
skewedRequest(const std::string& name, const ir::ExprPtr& source,
              int index)
{
    RunRequest request;
    request.name = name;
    request.source = source;
    request.pipeline = compiler::DriverConfig::greedy({}, 20);
    request.inputs = benchsuite::syntheticInputs(source);
    for (auto& [var, value] : request.inputs) value += index * 7 + 1;
    request.key_budget = 0;
    request.params.n = 256;
    request.params.prime_count = 4;
    request.params.seed = 17;
    return request;
}

TEST(LoadModelTest, MeasuredSchedulingKeepsOutputsBitIdentical1v8)
{
    // A skewed mix (one wide reduction among small kernels) run twice
    // per key so the second round dispatches and consolidates on
    // *measured* profiles — under 1 and 8 workers, with cross-kernel
    // packing on. The scheduler may group and order differently; the
    // outputs must match the solo baseline bit for bit.
    const std::vector<ir::ExprPtr> sources = {
        ir::parse(dotSource(16)), ir::parse(dotSource(2)),
        ir::parse(dotSource(3)), ir::parse(dotSource(4))};
    auto makeRound = [&](int round) {
        std::vector<RunRequest> batch;
        for (std::size_t k = 0; k < sources.size(); ++k) {
            for (int i = 0; i < 2; ++i) {
                batch.push_back(skewedRequest(
                    "k" + std::to_string(k) + "." +
                        std::to_string(round) + "." + std::to_string(i),
                    sources[k],
                    static_cast<int>(k) * 10 + round * 100 + i));
            }
        }
        return batch;
    };

    std::map<std::string, std::vector<std::int64_t>> solo;
    {
        ServiceConfig config;
        config.num_workers = 2;
        config.max_lanes = 1; // Batching off: the reference outputs.
        CompileService service(config);
        for (int round = 0; round < 2; ++round) {
            for (const RunResponse& response :
                 service.runBatch(makeRound(round))) {
                ASSERT_TRUE(response.ok)
                    << response.name << ": " << response.error;
                solo[response.name] = response.result.output;
            }
        }
    }

    for (int workers : {1, 8}) {
        ServiceConfig config;
        config.num_workers = workers;
        config.max_lanes = 0;
        config.batch_window_seconds = 0.01;
        config.cross_kernel = true;
        CompileService service(config);
        // Two rounds through one service: the second dispatches and
        // consolidates on profiles the first one measured.
        for (int round = 0; round < 2; ++round) {
            for (const RunResponse& response :
                 service.runBatch(makeRound(round))) {
                ASSERT_TRUE(response.ok)
                    << response.name << ": " << response.error;
                ASSERT_TRUE(solo.count(response.name)) << response.name;
                EXPECT_EQ(response.result.output,
                          solo.at(response.name))
                    << response.name << " at " << workers << " workers";
            }
        }
        const ServiceStats stats = service.stats();
        EXPECT_GT(stats.load_model.warm_predictions, 0u) << workers;
        EXPECT_GT(stats.load_model.run_observations, 0u) << workers;
    }
}

TEST(LoadModelTest, CountersStayConsistentUnderConcurrentHammering)
{
    // Exercised under CI's ThreadSanitizer job: concurrent observers
    // and predictors over shared keys, then the monotonic-counter
    // invariants on the final snapshot.
    LoadModel model;
    constexpr int kThreads = 4;
    constexpr int kOps = 400;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&model, t] {
            for (int i = 0; i < kOps; ++i) {
                const auto id = static_cast<std::uint64_t>(i % 7);
                model.predictCompileSeconds(compileKey(id), 10.0 + i);
                model.observeCompile(compileKey(id), 10.0 + i,
                                     1e-4 * (t + 1));
                model.predictRunSeconds(groupKey(id), 5.0 + i);
                model.observeRun(groupKey(id), 5.0 + i, 2e-4 * (t + 1),
                                 1e-4);
                model.preferRowShare(0x50u, 1e-3 * i);
            }
        });
    }
    for (std::thread& thread : threads) thread.join();

    const LoadModelSnapshot snap = model.snapshot();
    const auto total = static_cast<std::uint64_t>(kThreads * kOps);
    EXPECT_EQ(snap.compile_observations, total);
    EXPECT_EQ(snap.run_observations, total);
    // Every predict call is counted exactly once, warm or cold.
    EXPECT_EQ(snap.warm_predictions + snap.cold_predictions, 2 * total);
    // Every share query is counted exactly once.
    EXPECT_EQ(snap.share_preferred + snap.solo_preferred, total);
    // Profile maps hold at most the distinct keys observed.
    EXPECT_EQ(snap.compile_profiles, 7u);
    EXPECT_EQ(snap.run_profiles, 7u);
}

} // namespace
} // namespace chehab::service
