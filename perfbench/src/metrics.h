/// \file
/// Measurement primitives of the benchmark: nearest-rank percentiles
/// over its own samples, after-minus-before snapshots of the service's
/// additive counters and histogram buckets, the metric-name grammar,
/// and the JSON lines the benchmark prints.
///
/// Percentiles of end-to-end latency come from the benchmark's own
/// per-request samples, so a reported percentile is always one of the
/// samples and never exceeds the maximum. Service-side phase
/// percentiles come from telemetry histogram buckets, subtracted around
/// the measured window so warmup never leaks into them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/service_stats.h"
#include "support/telemetry.h"

namespace chehab::perfbench {

/// One reported number with its unit.
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Nearest-rank percentile of \p samples: the sample at rank
/// ceil(p / 100 * count) (at least 1) of the sorted samples, with
/// \p p in (0, 100]. 0.0 for no samples.
double nearestRank(std::vector<double> samples, double p);

/// Median, over \p segments consecutive slices of \p samples (in the
/// order they were taken, the last slice taking the remainder), of each
/// slice's nearest-rank percentile \p p. A stall that delays one batch
/// of requests moves one slice's tail, not the reported value. Falls
/// back to nearestRank over all samples when there are fewer samples
/// than slices.
double segmentedPercentile(const std::vector<double>& samples, double p,
                           int segments);

/// True when \p name matches [A-Za-z0-9_.-]+, starts with a letter or
/// digit, and is at most 64 characters long.
bool validMetricName(const std::string& name);

using Buckets =
    std::array<std::uint64_t, telemetry::LatencyHistogram::kBucketCount>;

/// Nearest-rank percentile over histogram bucket counts: the geometric
/// midpoint of the bucket holding the rank (the LatencyHistogram
/// convention, exact to one bucket). 0.0 when the buckets are empty.
double bucketPercentile(const Buckets& buckets, double p);

std::uint64_t bucketTotal(const Buckets& buckets);

/// The additive service counters the benchmark reads. Every field is a
/// monotonic sum in ServiceStats, so the difference of two snapshots is
/// exactly the activity between them.
struct ServiceCounters
{
    std::uint64_t compile_hits = 0;
    std::uint64_t compile_misses = 0;
    std::uint64_t compile_joins = 0;
    std::uint64_t run_hits = 0;
    std::uint64_t run_misses = 0;
    std::uint64_t run_joins = 0;
    std::uint64_t executed = 0;
    std::uint64_t solo_runs = 0;
    std::uint64_t packed_groups = 0;
    std::uint64_t packed_lanes = 0;
    std::uint64_t packed_fallbacks = 0;
    std::uint64_t composite_groups = 0;
    std::uint64_t composite_members = 0;
    std::uint64_t pool_tasks = 0;
    double pool_busy_seconds = 0.0;
    Buckets queue_wait{};
    Buckets execute{};
    Buckets window_wait{};

    /// Fold another window's activity into this one.
    void add(const ServiceCounters& other);
};

ServiceCounters countersOf(const service::ServiceStats& stats);

/// Activity between two snapshots of one service: after - before.
ServiceCounters since(const ServiceCounters& before,
                      const ServiceCounters& after);

/// Minimal JSON object writer for the benchmark's output lines.
class JsonObject
{
  public:
    JsonObject& add(const std::string& key, double value);
    JsonObject& add(const std::string& key, std::uint64_t value);
    JsonObject& add(const std::string& key, int value);
    JsonObject& add(const std::string& key, bool value);
    JsonObject& add(const std::string& key, const std::string& value);
    JsonObject& add(const std::string& key, const char* value);
    JsonObject& add(const std::string& key, const JsonObject& value);
    std::string str() const;

  private:
    JsonObject& raw(const std::string& key, std::string json);
    std::vector<std::pair<std::string, std::string>> fields_;
};

/// The benchmark's last output line: correctness, request counts and
/// every metric as {"value": v, "unit": u}.
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

} // namespace chehab::perfbench
