/// \file
/// The benchmark's own tests: seeded request streams, metric names,
/// nearest-rank percentiles and snapshot subtraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "benchsuite/kernels.h"
#include "metrics.h"
#include "service/compile_service.h"
#include "specs.h"
#include "stream.h"

namespace chehab::perfbench {
namespace {

TEST(Stream, SameSeedGivesByteIdenticalStreams)
{
    EXPECT_EQ(describe(compileRound(greedySuite(), 48, 7, 0)),
              describe(compileRound(greedySuite(), 48, 7, 0)));
    for (const std::vector<Program>& mix : {fig5Mix(), servePool()}) {
        EXPECT_EQ(describe(runCycle(mix, 7, 2), mix),
                  describe(runCycle(mix, 7, 2), mix));
    }
    EXPECT_EQ(describe(servePool()), describe(servePool()));
}

TEST(Stream, DifferentSeedGivesDifferentStreams)
{
    EXPECT_NE(describe(compileRound(greedySuite(), 48, 7, 0)),
              describe(compileRound(greedySuite(), 48, 8, 0)));
    EXPECT_NE(describe(compileRound(greedySuite(), 48, 7, 0)),
              describe(compileRound(greedySuite(), 48, 7, 1)));
    for (const std::vector<Program>& mix : {fig5Mix(), servePool()}) {
        EXPECT_NE(describe(runCycle(mix, 7, 0), mix),
                  describe(runCycle(mix, 8, 0), mix));
        EXPECT_NE(describe(runCycle(mix, 7, 0), mix),
                  describe(runCycle(mix, 7, 1), mix));
    }
}

TEST(Stream, RunCycleHoldsEveryProgramOnce)
{
    const std::vector<Program> pool = servePool();
    const std::vector<RunItem> items = runCycle(pool, 7, 0);
    std::set<std::size_t> seen;
    for (const RunItem& item : items) seen.insert(item.program);
    EXPECT_EQ(items.size(), pool.size());
    EXPECT_EQ(seen.size(), pool.size());
}

TEST(Stream, CompileRoundsAreDistinct)
{
    const std::vector<Program> round = compileRound(greedySuite(), 48, 7, 0);
    EXPECT_EQ(round.size(), greedySuite().size() + 48);
    std::set<std::string> texts;
    for (const Program& program : round) {
        texts.insert(program.source->toString());
    }
    EXPECT_EQ(texts.size(), round.size());
}

TEST(Metrics, EveryMetricNameMatchesTheGrammar)
{
    std::set<std::string> seen;
    for (const auto* specs : {&endToEndSpecs(), &perLayerSpecs()}) {
        for (const MetricSpec& spec : *specs) {
            EXPECT_TRUE(validMetricName(spec.name)) << spec.name;
            EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
        }
    }
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName("fhe.encode.ms.n4096"));
}

TEST(Metrics, NearestRankMatchesSortedReference)
{
    Rng rng(3);
    for (const int count : {1, 2, 7, 100, 1001}) {
        std::vector<double> samples;
        for (int i = 0; i < count; ++i) samples.push_back(rng.uniformReal());
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        for (const double p : {1.0, 50.0, 90.0, 99.0, 100.0}) {
            const auto rank = static_cast<std::size_t>(
                std::ceil(p / 100.0 * static_cast<double>(count)));
            const double expected = sorted[std::max<std::size_t>(rank, 1) - 1];
            EXPECT_EQ(nearestRank(samples, p), expected)
                << "count " << count << " p " << p;
            EXPECT_LE(nearestRank(samples, p), sorted.back());
        }
    }
    EXPECT_EQ(nearestRank({}, 50.0), 0.0);
}

TEST(Metrics, SegmentedPercentileIgnoresOneStalledSlice)
{
    Rng rng(4);
    std::vector<double> samples;
    for (int i = 0; i < 1000; ++i) samples.push_back(rng.uniformReal());
    std::vector<double> per_slice;
    for (int i = 0; i < 5; ++i) {
        per_slice.push_back(nearestRank(
            {samples.begin() + i * 200, samples.begin() + (i + 1) * 200}, 99.0));
    }
    const double expected = nearestRank(per_slice, 50.0);
    EXPECT_EQ(segmentedPercentile(samples, 99.0, 5), expected);
    // A stall delaying 30 consecutive requests tops the plain p99 but
    // leaves the segmented one among the clean slices' values.
    for (int i = 100; i < 130; ++i) samples[i] += 10.0;
    EXPECT_GT(nearestRank(samples, 99.0), 10.0);
    EXPECT_LE(segmentedPercentile(samples, 99.0, 5),
              *std::max_element(per_slice.begin(), per_slice.end()));
    EXPECT_EQ(segmentedPercentile({2.0, 1.0}, 50.0, 5), 1.0);
    EXPECT_EQ(segmentedPercentile({}, 50.0, 5), 0.0);
}

TEST(Metrics, BucketSubtractionIsExact)
{
    telemetry::LatencyHistogram histogram;
    telemetry::LatencyHistogram window_only;
    Rng rng(5);
    for (int i = 0; i < 500; ++i) histogram.record(rng.uniformReal() * 0.1);
    ServiceCounters before;
    before.queue_wait = histogram.buckets();
    for (int i = 0; i < 300; ++i) {
        const double sample = rng.uniformReal() * 0.01;
        histogram.record(sample);
        window_only.record(sample);
    }
    ServiceCounters after;
    after.queue_wait = histogram.buckets();
    const ServiceCounters delta = since(before, after);
    EXPECT_EQ(delta.queue_wait, window_only.buckets());
    EXPECT_EQ(bucketTotal(delta.queue_wait), 300u);
    for (const double p : {50.0, 90.0, 99.0}) {
        EXPECT_EQ(bucketPercentile(delta.queue_wait, p),
                  window_only.percentile(p));
    }
}

TEST(Metrics, ServiceSnapshotSubtractionIsExact)
{
    service::ServiceConfig config;
    config.num_workers = 2;
    config.telemetry = true;
    service::CompileService service(config);
    const auto compileAll = [&](const std::vector<benchsuite::Kernel>& kernels) {
        std::vector<service::CompileRequest> requests;
        for (const benchsuite::Kernel& kernel : kernels) {
            service::CompileRequest request;
            request.name = kernel.name;
            request.source = kernel.program;
            requests.push_back(std::move(request));
        }
        for (const service::CompileResponse& response :
             service.compileBatch(std::move(requests))) {
            EXPECT_TRUE(response.ok) << response.error;
        }
        service.drain();
    };
    compileAll({benchsuite::dotProduct(2), benchsuite::l2Distance(2)});
    const ServiceCounters before = countersOf(service.stats());
    compileAll({benchsuite::dotProduct(2), benchsuite::dotProduct(4),
                benchsuite::polyReg(2), benchsuite::linearReg(2)});
    const ServiceCounters delta = since(before, countersOf(service.stats()));
    EXPECT_EQ(delta.compile_hits, 1u);
    EXPECT_EQ(delta.compile_misses, 3u);
    EXPECT_EQ(delta.pool_tasks, 3u);
    EXPECT_EQ(bucketTotal(delta.queue_wait), 3u);
    EXPECT_EQ(delta.executed, 0u);
}

TEST(Metrics, ResultLineCarriesEveryMetric)
{
    const std::string line =
        resultLine(true, 3, 0, {{"jobs_per_s", 1.5, "1/s"}, {"x.y", 2.0, "ms"}});
    EXPECT_EQ(line, "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                    "\"metrics\": {\"jobs_per_s\": {\"value\": 1.5, \"unit\": "
                    "\"1/s\"}, \"x.y\": {\"value\": 2, \"unit\": \"ms\"}}}");
}

} // namespace
} // namespace chehab::perfbench
