/// \file
/// Tests for the two-level service sharding layer: the consistent-hash
/// ring (determinism, distribution, growth stability), load-based run
/// routing with the hot-shard steal, cross-shard stats merging
/// (ServiceStats::merge, LatencyHistogram round-trips, invariants on
/// merged snapshots under concurrent load), the ServiceConfig
/// validator, the 1-shard bit-identity contract against a plain
/// CompileService, and the merged multi-shard Chrome trace export.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchsuite/kernels.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "service/service_stats.h"
#include "service/shard_router.h"
#include "support/telemetry.h"

namespace chehab::service {
namespace {

/// Synthetic cache keys with full control over the hash input: the
/// router only ever sees the key through CacheKeyHash, so fabricated
/// fingerprints exercise it exactly like canonicalized programs do.
CacheKey
syntheticKey(std::uint64_t i)
{
    CacheKey key;
    key.source.hi = i * 0x9e3779b97f4a7c15ULL + 1;
    key.source.lo = i ^ 0x243f6a8885a308d3ULL;
    key.pipeline = 7;
    return key;
}

// ---- the ring ---------------------------------------------------------

TEST(ShardRouterTest, AffinityIsDeterministic)
{
    ShardRouter a(4);
    ShardRouter b(4);
    for (std::uint64_t i = 0; i < 500; ++i) {
        const CacheKey key = syntheticKey(i);
        const int shard = a.affinityShard(key);
        EXPECT_EQ(shard, b.affinityShard(key)) << i;
        EXPECT_EQ(shard, a.affinityShard(key)) << i; // Stable per router.
        EXPECT_GE(shard, 0);
        EXPECT_LT(shard, 4);
    }
}

TEST(ShardRouterTest, RingSpreadsKeysRoughlyUniformly)
{
    const int shards = 4;
    const int keys = 20000;
    ShardRouter router(shards);
    std::vector<int> counts(shards, 0);
    for (std::uint64_t i = 0; i < keys; ++i) {
        ++counts[static_cast<std::size_t>(
            router.affinityShard(syntheticKey(i)))];
    }
    // 64 vnodes/shard keeps each shard's share near 1/N; the bound
    // here is deliberately loose (half to double the fair share) so
    // the test pins "no shard starves or hogs", not the exact variance.
    const int fair = keys / shards;
    for (int shard = 0; shard < shards; ++shard) {
        EXPECT_GT(counts[static_cast<std::size_t>(shard)], fair / 2)
            << shard;
        EXPECT_LT(counts[static_cast<std::size_t>(shard)], fair * 2)
            << shard;
    }
}

TEST(ShardRouterTest, GrowthOnlyMovesKeysToTheNewShard)
{
    const int keys = 5000;
    ShardRouter before(4);
    ShardRouter after(5);
    int moved = 0;
    for (std::uint64_t i = 0; i < keys; ++i) {
        const CacheKey key = syntheticKey(i);
        const int old_shard = before.affinityShard(key);
        const int new_shard = after.affinityShard(key);
        if (new_shard != old_shard) {
            // The consistent-hash contract: adding shard 4 only claims
            // the arcs its own vnodes capture — a key either stays put
            // or moves to the *new* shard, never between old shards.
            EXPECT_EQ(new_shard, 4) << "key " << i << " moved "
                                    << old_shard << " -> " << new_shard;
            ++moved;
        }
    }
    // Roughly 1/5 of the keys should land on the newcomer.
    EXPECT_GT(moved, keys / 10);
    EXPECT_LT(moved, keys / 2);
}

TEST(ShardRouterTest, SingleShardRoutesEverythingToZero)
{
    ShardRouter router(1);
    for (std::uint64_t i = 0; i < 50; ++i) {
        EXPECT_EQ(router.affinityShard(syntheticKey(i)), 0);
        EXPECT_EQ(router.routeRun(syntheticKey(i), {1000.0}), 0);
    }
}

TEST(ShardRouterTest, ConstructorRejectsNonsense)
{
    EXPECT_THROW(ShardRouter(0), std::invalid_argument);
    EXPECT_THROW(ShardRouter(-3), std::invalid_argument);
}

// ---- load-based run routing -------------------------------------------

TEST(ShardRouterTest, RunStaysOnAffinityShardWhenLoadsAreEven)
{
    ShardRouter router(4);
    const CacheKey key = syntheticKey(42);
    const int affinity = router.affinityShard(key);
    // Even loads, loads within the slack, and an affinity shard that
    // is busy but not hot relative to the idlest: all keep affinity.
    EXPECT_EQ(router.routeRun(key, {1.0, 1.0, 1.0, 1.0}), affinity);
    EXPECT_EQ(router.routeRun(key, {0.0, 0.0, 0.0, 0.0}), affinity);
    std::vector<double> mild(4, 1.0);
    mild[static_cast<std::size_t>(affinity)] = 1.5; // < 2x + slack.
    EXPECT_EQ(router.routeRun(key, mild), affinity);
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.run_affinity, 3u);
    EXPECT_EQ(stats.run_rerouted, 0u);
}

TEST(ShardRouterTest, HotAffinityShardSpillsToCoolest)
{
    ShardRouter router(4);
    const CacheKey key = syntheticKey(42);
    const int affinity = router.affinityShard(key);
    std::vector<double> loads(4, 1.0);
    loads[static_cast<std::size_t>(affinity)] = 10.0; // Hot.
    const int coolest = (affinity + 1) % 4;
    loads[static_cast<std::size_t>(coolest)] = 0.25;
    EXPECT_EQ(router.routeRun(key, loads), coolest);
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.run_affinity, 0u);
    EXPECT_EQ(stats.run_rerouted, 1u);
}

TEST(ShardRouterTest, SlackSuppressesStealOnNearIdleFleet)
{
    ShardRouter router(4);
    const CacheKey key = syntheticKey(42);
    const int affinity = router.affinityShard(key);
    // Relative imbalance is huge (4 ms vs 1 ms) but absolute load sits
    // inside hot_slack_seconds: affinity wins — stealing here would
    // trade a warm cache for microseconds of queue relief.
    std::vector<double> loads(4, 0.001);
    loads[static_cast<std::size_t>(affinity)] = 0.004;
    EXPECT_EQ(router.routeRun(key, loads), affinity);
}

TEST(ShardRouterTest, MalformedLoadVectorFallsBackToAffinity)
{
    ShardRouter router(4);
    const CacheKey key = syntheticKey(7);
    const int affinity = router.affinityShard(key);
    EXPECT_EQ(router.routeRun(key, {}), affinity);
    EXPECT_EQ(router.routeRun(key, {1.0, 2.0}), affinity);
}

// ---- stats merging ----------------------------------------------------

TEST(ShardRouterTest, LatencyHistogramMergeRoundTrips)
{
    telemetry::LatencyHistogram a;
    telemetry::LatencyHistogram b;
    telemetry::LatencyHistogram combined;
    for (int i = 1; i <= 200; ++i) {
        const double sample = 1e-6 * i * i;
        (i % 3 == 0 ? a : b).record(sample);
        combined.record(sample);
    }
    telemetry::LatencyHistogram merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.count(), combined.count());
    EXPECT_DOUBLE_EQ(merged.sum(), combined.sum());
    EXPECT_DOUBLE_EQ(merged.min(), combined.min());
    EXPECT_DOUBLE_EQ(merged.max(), combined.max());
    EXPECT_EQ(merged.buckets(), combined.buckets());
    for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
        EXPECT_DOUBLE_EQ(merged.percentile(p), combined.percentile(p))
            << p;
    }
}

TEST(ShardRouterTest, ServiceStatsMergeSumsEveryLayer)
{
    ServiceStats a;
    a.submitted = 3;
    a.compiled = 2;
    a.run_submitted = 5;
    a.executed = 4;
    a.total_compile_seconds = 1.5;
    a.packed_lanes = 6;
    a.cache.hits = 2;
    a.cache.misses = 1;
    a.run_cache.hits = 7;
    a.load_model.warm_predictions = 9;
    a.load_model.inflight_jobs = 1;
    a.load_model.inflight_predicted_seconds = 0.5;
    a.pool.tasks_run = 11;
    a.pool.busy_seconds = 2.0;
    a.telemetry.enabled = true;
    a.telemetry.events = 13;
    a.telemetry.hist[0].record(0.001);

    ServiceStats b;
    b.submitted = 10;
    b.compiled = 9;
    b.run_submitted = 20;
    b.executed = 18;
    b.total_compile_seconds = 0.5;
    b.packed_lanes = 1;
    b.cache.hits = 4;
    b.cache.misses = 2;
    b.run_cache.hits = 3;
    b.load_model.warm_predictions = 1;
    b.load_model.inflight_jobs = 2;
    b.load_model.inflight_predicted_seconds = 1.25;
    b.pool.tasks_run = 5;
    b.pool.busy_seconds = 1.0;
    b.telemetry.events = 2;
    b.telemetry.hist[0].record(0.002);
    b.telemetry.hist[0].record(0.004);

    ServiceStats merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.submitted, 13u);
    EXPECT_EQ(merged.compiled, 11u);
    EXPECT_EQ(merged.run_submitted, 25u);
    EXPECT_EQ(merged.executed, 22u);
    EXPECT_DOUBLE_EQ(merged.total_compile_seconds, 2.0);
    EXPECT_EQ(merged.packed_lanes, 7u);
    EXPECT_EQ(merged.cache.hits, 6u);
    EXPECT_EQ(merged.cache.misses, 3u);
    EXPECT_EQ(merged.run_cache.hits, 10u);
    EXPECT_EQ(merged.load_model.warm_predictions, 10u);
    EXPECT_EQ(merged.load_model.inflight_jobs, 3u);
    EXPECT_DOUBLE_EQ(merged.load_model.inflight_predicted_seconds, 1.75);
    EXPECT_EQ(merged.pool.tasks_run, 16u);
    EXPECT_DOUBLE_EQ(merged.pool.busy_seconds, 3.0);
    EXPECT_TRUE(merged.telemetry.enabled);
    EXPECT_EQ(merged.telemetry.events, 15u);
    EXPECT_EQ(merged.telemetry.hist[0].count(), 3u);
}

// ---- the sharded service ----------------------------------------------

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
shardedRequest(const std::string& name, const ir::ExprPtr& source,
               int index)
{
    RunRequest request;
    request.name = name;
    request.source = source;
    request.pipeline = compiler::DriverConfig::greedy({}, 12);
    request.inputs = benchsuite::syntheticInputs(source);
    for (auto& [key, value] : request.inputs) value += index * 5 + 1;
    request.params.n = 256;
    request.params.prime_count = 4;
    request.params.seed = 17;
    request.key_budget = 0;
    return request;
}

/// A small mixed batch over a few distinct kernels.
std::vector<RunRequest>
mixedBatch(int jobs)
{
    const std::vector<ir::ExprPtr> kernels = {
        ir::parse(dotSource(2)), ir::parse(dotSource(4)),
        ir::parse("(+ (* x x) (* 3 y))"),
        ir::parse("(<< (Vec a0 a1 b0 b1) 1)")};
    std::vector<RunRequest> batch;
    for (int i = 0; i < jobs; ++i) {
        batch.push_back(shardedRequest(
            "k" + std::to_string(i),
            kernels[static_cast<std::size_t>(i) % kernels.size()], i));
    }
    return batch;
}

std::map<std::string, std::vector<std::int64_t>>
outputsByName(ServiceApi& service, std::vector<RunRequest> batch)
{
    std::map<std::string, std::vector<std::int64_t>> outputs;
    for (RunResponse& response : service.runBatch(std::move(batch))) {
        EXPECT_TRUE(response.ok)
            << response.name << ": " << response.error;
        outputs[response.name] = response.result.output;
    }
    return outputs;
}

TEST(ShardedServiceTest, OneShardIsBitIdenticalToPlainService)
{
    ServiceConfig config;
    config.num_workers = 2;
    config.max_lanes = 4;
    config.batch_window_seconds = 0.02;

    CompileService plain(config);
    const auto plain_outputs = outputsByName(plain, mixedBatch(12));

    config.shards = 1;
    ShardedService sharded(config);
    const auto sharded_outputs = outputsByName(sharded, mixedBatch(12));

    EXPECT_EQ(plain_outputs, sharded_outputs);
    EXPECT_EQ(sharded.shards(), 1);
    EXPECT_EQ(sharded.numWorkers(), plain.numWorkers());
}

TEST(ShardedServiceTest, OutputsInvariantAcrossShardAndWorkerCounts)
{
    std::map<std::string, std::vector<std::int64_t>> reference;
    for (const RunRequest& request : mixedBatch(12)) {
        const ir::Value expected =
            ir::Evaluator().evaluate(request.source, request.inputs);
        std::vector<std::int64_t> slots = expected.slots;
        if (!expected.is_vector) slots.resize(1);
        reference[request.name] = std::move(slots);
    }
    for (const auto& [shards, workers] :
         std::vector<std::pair<int, int>>{{1, 1}, {2, 2}, {4, 1}, {3, 8}}) {
        ServiceConfig config;
        config.shards = shards;
        config.num_workers = workers;
        config.max_lanes = 4;
        config.batch_window_seconds = 0.02;
        ShardedService service(config);
        const auto outputs = outputsByName(service, mixedBatch(12));
        ASSERT_EQ(outputs.size(), reference.size());
        for (const auto& [name, slots] : outputs) {
            ASSERT_TRUE(reference.count(name)) << name;
            // Slot 0 carries the semantic result for scalar kernels;
            // vector kernels compare the reference's full width. Any
            // routing, any shard count, any worker count: same bits.
            const std::vector<std::int64_t>& expected =
                reference.at(name);
            ASSERT_GE(slots.size(), expected.size())
                << name << " @ " << shards << " shards";
            for (std::size_t s = 0; s < expected.size(); ++s) {
                EXPECT_EQ(slots[s], expected[s])
                    << name << " slot " << s << " @ " << shards
                    << " shards x " << workers << " workers";
            }
        }
    }
}

TEST(ShardedServiceTest, CompileTrafficHonorsCacheAffinity)
{
    ServiceConfig config;
    config.shards = 4;
    config.num_workers = 1;
    ShardedService service(config);
    // Submitting the same kernel many times must hit exactly one
    // shard's cache: one miss fleet-wide, everything else hits or
    // joins in flight on that same shard.
    std::vector<std::future<CompileResponse>> futures;
    const ir::ExprPtr source = ir::parse(dotSource(4));
    for (int i = 0; i < 8; ++i) {
        CompileRequest request;
        request.name = "same" + std::to_string(i);
        request.source = source;
        request.pipeline = compiler::DriverConfig::greedy({}, 12);
        futures.push_back(service.submit(std::move(request)));
    }
    for (auto& future : futures) {
        const CompileResponse response = future.get();
        EXPECT_TRUE(response.ok) << response.error;
    }
    service.drain();
    const ServiceStats merged = service.stats();
    EXPECT_EQ(merged.cache.misses, 1u);
    EXPECT_EQ(merged.cache.hits + merged.cache.inflight_joins, 7u);
    int shards_with_entries = 0;
    for (int shard = 0; shard < service.shards(); ++shard) {
        if (service.shardStats(shard).cache.entries > 0) {
            ++shards_with_entries;
        }
    }
    EXPECT_EQ(shards_with_entries, 1);
    EXPECT_EQ(service.routerStats().compile_routed, 8u);
}

TEST(ShardedServiceTest, MergedStatsSatisfyInvariantsUnderConcurrentLoad)
{
    ServiceConfig config;
    config.shards = 3;
    config.num_workers = 2;
    config.max_lanes = 4;
    config.batch_window_seconds = 0.005;
    config.telemetry = true;
    ShardedService service(config);

    // Several client threads hammer the router concurrently (the
    // TSan job runs this too: router counters, per-shard load signals
    // and the merge path must all be clean).
    const int clients = 4;
    const int per_client = 10;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&service, c] {
            std::vector<std::future<RunResponse>> futures;
            std::vector<RunRequest> batch = mixedBatch(per_client);
            for (RunRequest& request : batch) {
                request.name += "@" + std::to_string(c);
                for (auto& [key, value] : request.inputs) value += c;
                futures.push_back(service.submitRun(std::move(request)));
            }
            for (auto& future : futures) {
                EXPECT_TRUE(future.get().ok);
            }
        });
    }
    for (std::thread& thread : threads) thread.join();

    // Mid-flight-shaped check on the merged snapshot (not quiescent
    // yet from the stats' point of view until drain below).
    EXPECT_EQ(checkStatsInvariants(service.stats()), "");

    service.drain();
    const ServiceStats merged = service.stats();
    // Quiescent: stricter accounting equalities, including the new
    // load-signal zero (every noteEnqueued matched by a noteFinished
    // on every shard).
    EXPECT_EQ(checkStatsInvariants(merged, /*quiescent=*/true), "");
    EXPECT_EQ(merged.run_submitted,
              static_cast<std::uint64_t>(clients * per_client));
    // Per-shard snapshots pass the same quiescent checks, and their
    // totals add up to the merged view.
    std::uint64_t sum = 0;
    for (int shard = 0; shard < service.shards(); ++shard) {
        const ServiceStats stats = service.shardStats(shard);
        EXPECT_EQ(checkStatsInvariants(stats, /*quiescent=*/true), "")
            << "shard " << shard;
        sum += stats.run_submitted;
    }
    EXPECT_EQ(sum, merged.run_submitted);
    const RouterStats routed = service.routerStats();
    EXPECT_EQ(routed.run_affinity + routed.run_rerouted,
              merged.run_submitted);
}

TEST(ShardedServiceTest, MergedTraceGroupsTracksByShard)
{
    ServiceConfig config;
    config.shards = 2;
    config.num_workers = 1;
    config.telemetry = true;
    ShardedService service(config);
    std::vector<RunRequest> batch = mixedBatch(8);
    for (RunResponse& response : service.runBatch(std::move(batch))) {
        EXPECT_TRUE(response.ok) << response.error;
    }
    service.drain();
    std::ostringstream out;
    service.writeChromeTrace(out);
    const std::string trace = out.str();
    // One process (track group) per shard: pid N+1 labeled "shard N".
    EXPECT_NE(trace.find("\"name\":\"shard 0\""), std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"shard 1\""), std::string::npos);
    EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(trace.find("\"pid\":2"), std::string::npos);
}

// ---- config validation ------------------------------------------------

TEST(ServiceConfigTest, ValidateAcceptsDefaultsAndEdgeCases)
{
    ServiceConfig config;
    EXPECT_EQ(config.validate(), "");
    // Deliberately-valid edge semantics with in-tree users: unbounded
    // caches and "row capacity" lane cap.
    config.kernel_cache_capacity = 0;
    config.run_cache_capacity = 0;
    config.max_lanes = 0;
    EXPECT_EQ(config.validate(), "");
    config.shards = 8;
    config.shard_id = 7;
    EXPECT_EQ(config.validate(), "");
}

TEST(ServiceConfigTest, ValidateRejectsNonsense)
{
    const auto reject = [](auto mutate) {
        ServiceConfig config;
        mutate(config);
        return !config.validate().empty();
    };
    EXPECT_TRUE(reject([](ServiceConfig& c) { c.num_workers = 0; }));
    EXPECT_TRUE(reject([](ServiceConfig& c) { c.num_workers = -4; }));
    EXPECT_TRUE(reject([](ServiceConfig& c) { c.max_lanes = -1; }));
    EXPECT_TRUE(reject(
        [](ServiceConfig& c) { c.batch_window_seconds = -0.5; }));
    EXPECT_TRUE(reject([](ServiceConfig& c) {
        c.batch_window_seconds = std::numeric_limits<double>::quiet_NaN();
    }));
    EXPECT_TRUE(reject([](ServiceConfig& c) { c.shards = 0; }));
    EXPECT_TRUE(reject([](ServiceConfig& c) { c.shards = -2; }));
    EXPECT_TRUE(reject([](ServiceConfig& c) { c.shard_id = -1; }));
    EXPECT_TRUE(reject([](ServiceConfig& c) {
        c.shards = 2;
        c.shard_id = 2;
    }));
}

TEST(ServiceConfigTest, ConstructorsRejectInvalidConfigs)
{
    ServiceConfig config;
    config.num_workers = 0;
    EXPECT_THROW(CompileService{config}, std::invalid_argument);
    EXPECT_THROW(ShardedService{config}, std::invalid_argument);
    ServiceConfig nan_window;
    nan_window.batch_window_seconds =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(CompileService{nan_window}, std::invalid_argument);
    ServiceConfig bad_shards;
    bad_shards.shards = -1;
    EXPECT_THROW(ShardedService{bad_shards}, std::invalid_argument);
}

} // namespace
} // namespace chehab::service
