/// \file
/// Unit tests for the telemetry layer: histogram bucket math (edges,
/// monotonicity, bound round-trips), percentile-vs-sorted-reference
/// bucket agreement, merge equivalence, recorder span/instant
/// recording across threads, events() ordering, the per-shard drop
/// cap, the disabled no-op path, and Chrome trace export sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/telemetry.h"

namespace chehab::telemetry {
namespace {

using Hist = LatencyHistogram;

TEST(LatencyHistogramTest, BucketIndexEdges)
{
    // Underflow: zero, negatives, NaN, and anything below 1 us.
    EXPECT_EQ(Hist::bucketIndex(0.0), 0);
    EXPECT_EQ(Hist::bucketIndex(-1.0), 0);
    EXPECT_EQ(Hist::bucketIndex(std::numeric_limits<double>::quiet_NaN()),
              0);
    EXPECT_EQ(Hist::bucketIndex(Hist::kMinSeconds * 0.999), 0);
    // The first regular bucket starts exactly at kMinSeconds.
    EXPECT_EQ(Hist::bucketIndex(Hist::kMinSeconds), 1);
    // Overflow: beyond the last octave, and infinity.
    const double beyond =
        Hist::kMinSeconds * std::ldexp(1.0, Hist::kOctaves);
    EXPECT_EQ(Hist::bucketIndex(beyond * 2.0), Hist::kBucketCount - 1);
    EXPECT_EQ(Hist::bucketIndex(std::numeric_limits<double>::infinity()),
              Hist::kBucketCount - 1);
}

TEST(LatencyHistogramTest, BucketIndexMonotone)
{
    int prev = 0;
    for (double s = 1e-8; s < 1e3; s *= 1.07) {
        const int index = Hist::bucketIndex(s);
        EXPECT_GE(index, prev) << "at " << s << " s";
        EXPECT_GE(index, 0);
        EXPECT_LT(index, Hist::kBucketCount);
        prev = index;
    }
}

TEST(LatencyHistogramTest, BucketBoundsRoundTrip)
{
    for (int index = 0; index < Hist::kBucketCount; ++index) {
        const double lo = Hist::bucketLowerBound(index);
        const double hi = Hist::bucketUpperBound(index);
        ASSERT_LT(lo, hi) << "bucket " << index;
        // The lower bound itself belongs to the bucket...
        if (index > 0) {
            EXPECT_EQ(Hist::bucketIndex(lo), index) << "bucket " << index;
        }
        // ...and so does an interior point (overflow has no interior
        // midpoint below +inf, so probe just past the lower bound).
        const double interior = std::isinf(hi) ? lo * 2.0
                                               : lo + (hi - lo) * 0.5;
        if (index > 0) {
            EXPECT_EQ(Hist::bucketIndex(interior), index)
                << "bucket " << index;
        }
        // Consecutive buckets tile [0, inf): this bucket's upper bound
        // is the next one's lower bound.
        if (index + 1 < Hist::kBucketCount) {
            EXPECT_DOUBLE_EQ(hi, Hist::bucketLowerBound(index + 1));
        }
    }
}

TEST(LatencyHistogramTest, RecordAccounting)
{
    Hist hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.percentile(50.0), 0.0);
    EXPECT_EQ(hist.min(), 0.0);
    EXPECT_EQ(hist.max(), 0.0);

    hist.record(0.002);
    hist.record(0.010);
    hist.record(0.0005);
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_DOUBLE_EQ(hist.sum(), 0.0125);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0125 / 3.0);
    EXPECT_DOUBLE_EQ(hist.min(), 0.0005);
    EXPECT_DOUBLE_EQ(hist.max(), 0.010);

    std::uint64_t total = 0;
    for (std::uint64_t bucket : hist.buckets()) total += bucket;
    EXPECT_EQ(total, 3u);
}

TEST(LatencyHistogramTest, PercentileMatchesSortedReferenceBucket)
{
    // The documented guarantee: percentile() returns a value in the
    // same bucket as the exact nearest-rank percentile of the raw
    // sorted samples. Exercise it over a log-uniform latency spread.
    std::mt19937 rng(1234);
    std::uniform_real_distribution<double> exponent(-6.0, 1.0);
    std::vector<double> samples;
    Hist hist;
    for (int i = 0; i < 5000; ++i) {
        const double s = std::pow(10.0, exponent(rng));
        samples.push_back(s);
        hist.record(s);
    }
    std::sort(samples.begin(), samples.end());
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(samples.size())));
        const double exact =
            samples[std::min(rank == 0 ? 0 : rank - 1,
                             samples.size() - 1)];
        const double approx = hist.percentile(p);
        EXPECT_EQ(Hist::bucketIndex(approx), Hist::bucketIndex(exact))
            << "p" << p << ": approx " << approx << " vs exact " << exact;
    }
    // Degenerate percentiles stay in range.
    EXPECT_GE(hist.percentile(0.0), 0.0);
    EXPECT_LE(hist.percentile(100.0), hist.max() * 1.2);
}

TEST(LatencyHistogramTest, PercentilesStayWithinObservedRange)
{
    // A skewed sample whose minimum sits high in its bucket and whose
    // maximum sits low in its bucket: unclamped, p0's bucket midpoint
    // lies below the minimum and p100's above the maximum.
    Hist hist;
    hist.record(1.2e-3);
    for (int i = 0; i < 98; ++i) hist.record(2e-3);
    hist.record(1.05);
    for (double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
        EXPECT_GE(hist.percentile(p), hist.min()) << "p" << p;
        EXPECT_LE(hist.percentile(p), hist.max()) << "p" << p;
    }
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), hist.max());
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), hist.min());
    // Clamping keeps each percentile in its rank's bucket.
    EXPECT_EQ(Hist::bucketIndex(hist.percentile(100.0)),
              Hist::bucketIndex(1.05));
    EXPECT_EQ(Hist::bucketIndex(hist.percentile(0.0)),
              Hist::bucketIndex(1.2e-3));
}

TEST(LatencyHistogramTest, MergeEqualsCombinedStream)
{
    std::mt19937 rng(99);
    std::uniform_real_distribution<double> exponent(-7.0, 2.0);
    Hist a;
    Hist b;
    Hist combined;
    for (int i = 0; i < 2000; ++i) {
        const double s = std::pow(10.0, exponent(rng));
        (i % 3 ? a : b).record(s);
        combined.record(s);
    }
    Hist merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.count(), combined.count());
    // Sums accumulate in a different order, so compare with a relative
    // tolerance instead of bit equality.
    EXPECT_NEAR(merged.sum(), combined.sum(),
                1e-9 * std::abs(combined.sum()));
    EXPECT_DOUBLE_EQ(merged.min(), combined.min());
    EXPECT_DOUBLE_EQ(merged.max(), combined.max());
    EXPECT_EQ(merged.buckets(), combined.buckets());
    for (double p : {50.0, 90.0, 99.0}) {
        EXPECT_DOUBLE_EQ(merged.percentile(p), combined.percentile(p));
    }
}

TEST(TraceRecorderTest, DisabledRecorderIsNoOp)
{
    TraceRecorder recorder(/*enabled=*/false);
    EXPECT_FALSE(recorder.enabled());
    recorder.observe(Phase::Execute, 0.5);
    recorder.span("dispatch", 0, 10, 20, 7, {{"meas_s", 0.5}});
    recorder.instant("window_flush", TraceRecorder::kFlusherTid);
    { ScopedSpan span(recorder, "compile", 1, 3); }

    const TelemetrySnapshot snapshot = recorder.snapshot();
    EXPECT_FALSE(snapshot.enabled);
    EXPECT_EQ(snapshot.events, 0u);
    EXPECT_EQ(snapshot.dropped, 0u);
    EXPECT_EQ(snapshot.phase(Phase::Execute).count(), 0u);
    EXPECT_TRUE(recorder.events().empty());
}

TEST(TraceRecorderTest, SpanAndInstantRecording)
{
    TraceRecorder recorder(/*enabled=*/true);
    recorder.span("dispatch", 2, 100, 400, 11,
                  {{"qwait_s", 0.001}, {"meas_s", 0.0003}});
    recorder.instant("run_cache_hit", TraceRecorder::kClientTidBase, 11);
    recorder.observe(Phase::QueueWait, 0.001);

    const std::vector<TraceEvent> events = recorder.events();
    ASSERT_EQ(events.size(), 2u);
    // events() sorts by start time; the span started at 100 ns, the
    // instant at "now" (far later against the same epoch).
    EXPECT_STREQ(events[0].name, "dispatch");
    EXPECT_EQ(events[0].request_id, 11u);
    EXPECT_EQ(events[0].tid, 2);
    EXPECT_EQ(events[0].start_ns, 100);
    EXPECT_EQ(events[0].end_ns, 400);
    EXPECT_FALSE(events[0].isInstant());
    ASSERT_EQ(events[0].narg, 2);
    EXPECT_STREQ(events[0].arg_keys[0], "qwait_s");
    EXPECT_DOUBLE_EQ(events[0].arg_vals[0], 0.001);
    EXPECT_STREQ(events[1].name, "run_cache_hit");
    EXPECT_TRUE(events[1].isInstant());

    const TelemetrySnapshot snapshot = recorder.snapshot();
    EXPECT_TRUE(snapshot.enabled);
    EXPECT_EQ(snapshot.events, 2u);
    EXPECT_EQ(snapshot.phase(Phase::QueueWait).count(), 1u);
}

TEST(TraceRecorderTest, ScopedSpanRecordsOnDestruction)
{
    TraceRecorder recorder(/*enabled=*/true);
    {
        ScopedSpan span(recorder, "execute", 3, 42);
        span.arg("lanes", 4.0);
    }
    const std::vector<TraceEvent> events = recorder.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "execute");
    EXPECT_EQ(events[0].tid, 3);
    EXPECT_EQ(events[0].request_id, 42u);
    EXPECT_GE(events[0].end_ns, events[0].start_ns);
    ASSERT_EQ(events[0].narg, 1);
    EXPECT_STREQ(events[0].arg_keys[0], "lanes");
    EXPECT_DOUBLE_EQ(events[0].arg_vals[0], 4.0);
}

TEST(TraceRecorderTest, ConcurrentRecordingAndOrdering)
{
    TraceRecorder recorder(/*enabled=*/true);
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&recorder, t] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                const std::int64_t start = recorder.nowNs();
                recorder.observe(Phase::Execute, 1e-5);
                recorder.span("execute", t, start, recorder.nowNs(),
                              static_cast<std::uint64_t>(t * 1000 + i));
            }
        });
    }
    for (std::thread& thread : threads) thread.join();

    const std::vector<TraceEvent> events = recorder.events();
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(kThreads * kSpansPerThread));
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
    }
    const TelemetrySnapshot snapshot = recorder.snapshot();
    EXPECT_EQ(snapshot.events,
              static_cast<std::uint64_t>(kThreads * kSpansPerThread));
    EXPECT_EQ(snapshot.dropped, 0u);
    EXPECT_EQ(snapshot.phase(Phase::Execute).count(),
              static_cast<std::uint64_t>(kThreads * kSpansPerThread));
}

TEST(TraceRecorderTest, PerShardCapCountsDrops)
{
    // A single thread maps to one shard, so a tiny cap overflows fast.
    TraceRecorder recorder(/*enabled=*/true,
                           /*max_events_per_shard=*/4);
    for (int i = 0; i < 10; ++i) {
        recorder.span("dispatch", 0, i * 10, i * 10 + 5);
    }
    const TelemetrySnapshot snapshot = recorder.snapshot();
    EXPECT_EQ(snapshot.events, 4u);
    EXPECT_EQ(snapshot.dropped, 6u);
    EXPECT_EQ(recorder.events().size(), 4u);
}

TEST(TraceRecorderTest, ChromeTraceExportShape)
{
    TraceRecorder recorder(/*enabled=*/true);
    recorder.span("dispatch", 0, 1000, 9000, 5, {{"meas_s", 8e-6}});
    recorder.span("execute", 0, 2000, 8000, 5);
    recorder.instant("window_flush", TraceRecorder::kFlusherTid);

    std::ostringstream out;
    recorder.writeChromeTrace(out);
    const std::string json = out.str();
    // Top level is an object with the traceEvents array (what Perfetto
    // and chrome://tracing expect), not a bare array.
    EXPECT_EQ(json.find('{'), 0u);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    // Track metadata + the recorded events by name.
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
    EXPECT_NE(json.find("\"execute\""), std::string::npos);
    EXPECT_NE(json.find("\"window_flush\""), std::string::npos);
    // Complete spans and instants both present.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // Balanced braces — cheap structural sanity without a JSON parser.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(TraceRecorderTest, PhaseNamesStable)
{
    EXPECT_STREQ(phaseName(Phase::Enqueue), "enqueue");
    EXPECT_STREQ(phaseName(Phase::QueueWait), "queue_wait");
    EXPECT_STREQ(phaseName(Phase::Compile), "compile");
    EXPECT_STREQ(phaseName(Phase::Execute), "execute");
    EXPECT_STREQ(phaseName(Phase::Setup), "setup");
    EXPECT_STREQ(phaseName(Phase::Evaluate), "evaluate");
    EXPECT_STREQ(phaseName(Phase::Decode), "decode");
    EXPECT_STREQ(phaseName(Phase::WindowWait), "window_wait");
}

} // namespace
} // namespace chehab::telemetry
