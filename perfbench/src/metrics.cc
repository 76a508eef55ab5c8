#include "metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace chehab::perfbench {

namespace {

using telemetry::LatencyHistogram;

std::uint64_t
rankOf(double p, std::uint64_t count)
{
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                  static_cast<double>(count)));
    return std::clamp<std::uint64_t>(rank, 1, count);
}

Buckets
subtract(const Buckets& after, const Buckets& before)
{
    Buckets out{};
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = after[i] - before[i];
    return out;
}

std::string
quoted(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char escaped[8];
                std::snprintf(escaped, sizeof escaped, "\\u%04x",
                              static_cast<unsigned>(c));
                out += escaped;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace

double
nearestRank(std::vector<double> samples, double p)
{
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[rankOf(p, samples.size()) - 1];
}

double
segmentedPercentile(const std::vector<double>& samples, double p, int segments)
{
    const auto count = static_cast<std::size_t>(std::max(segments, 1));
    if (samples.size() < count) return nearestRank(samples, p);
    const std::size_t size = samples.size() / count;
    std::vector<double> per_slice;
    for (std::size_t i = 0; i < count; ++i) {
        const auto first = samples.begin() + static_cast<std::ptrdiff_t>(i * size);
        const auto last = i + 1 == count
                              ? samples.end()
                              : first + static_cast<std::ptrdiff_t>(size);
        per_slice.push_back(nearestRank({first, last}, p));
    }
    return nearestRank(per_slice, 50.0);
}

bool
validMetricName(const std::string& name)
{
    if (name.empty() || name.size() > 64) return false;
    if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

std::uint64_t
bucketTotal(const Buckets& buckets)
{
    std::uint64_t total = 0;
    for (const std::uint64_t count : buckets) total += count;
    return total;
}

double
bucketPercentile(const Buckets& buckets, double p)
{
    const std::uint64_t total = bucketTotal(buckets);
    if (total == 0) return 0.0;
    const std::uint64_t rank = rankOf(p, total);
    std::uint64_t seen = 0;
    for (int i = 0; i < LatencyHistogram::kBucketCount; ++i) {
        seen += buckets[static_cast<std::size_t>(i)];
        if (seen < rank) continue;
        if (i == 0) return LatencyHistogram::kMinSeconds / 2.0;
        if (i == LatencyHistogram::kBucketCount - 1) {
            return LatencyHistogram::bucketLowerBound(i);
        }
        return std::sqrt(LatencyHistogram::bucketLowerBound(i) *
                         LatencyHistogram::bucketUpperBound(i));
    }
    return 0.0;
}

void
ServiceCounters::add(const ServiceCounters& other)
{
    compile_hits += other.compile_hits;
    compile_misses += other.compile_misses;
    compile_joins += other.compile_joins;
    run_hits += other.run_hits;
    run_misses += other.run_misses;
    run_joins += other.run_joins;
    executed += other.executed;
    solo_runs += other.solo_runs;
    packed_groups += other.packed_groups;
    packed_lanes += other.packed_lanes;
    packed_fallbacks += other.packed_fallbacks;
    composite_groups += other.composite_groups;
    composite_members += other.composite_members;
    pool_tasks += other.pool_tasks;
    pool_busy_seconds += other.pool_busy_seconds;
    for (std::size_t i = 0; i < queue_wait.size(); ++i) {
        queue_wait[i] += other.queue_wait[i];
        execute[i] += other.execute[i];
        window_wait[i] += other.window_wait[i];
    }
}

ServiceCounters
countersOf(const service::ServiceStats& stats)
{
    using telemetry::Phase;
    ServiceCounters out;
    out.compile_hits = stats.cache.hits;
    out.compile_misses = stats.cache.misses;
    out.compile_joins = stats.cache.inflight_joins;
    out.run_hits = stats.run_cache.hits;
    out.run_misses = stats.run_cache.misses;
    out.run_joins = stats.run_cache.inflight_joins;
    out.executed = stats.executed;
    out.solo_runs = stats.solo_runs;
    out.packed_groups = stats.packed_groups;
    out.packed_lanes = stats.packed_lanes;
    out.packed_fallbacks = stats.packed_fallbacks;
    out.composite_groups = stats.composite_groups;
    out.composite_members = stats.composite_members;
    out.pool_tasks = stats.pool.tasks_run;
    out.pool_busy_seconds = stats.pool.busy_seconds;
    out.queue_wait = stats.telemetry.phase(Phase::QueueWait).buckets();
    out.execute = stats.telemetry.phase(Phase::Execute).buckets();
    out.window_wait = stats.telemetry.phase(Phase::WindowWait).buckets();
    return out;
}

ServiceCounters
since(const ServiceCounters& before, const ServiceCounters& after)
{
    ServiceCounters out;
    out.compile_hits = after.compile_hits - before.compile_hits;
    out.compile_misses = after.compile_misses - before.compile_misses;
    out.compile_joins = after.compile_joins - before.compile_joins;
    out.run_hits = after.run_hits - before.run_hits;
    out.run_misses = after.run_misses - before.run_misses;
    out.run_joins = after.run_joins - before.run_joins;
    out.executed = after.executed - before.executed;
    out.solo_runs = after.solo_runs - before.solo_runs;
    out.packed_groups = after.packed_groups - before.packed_groups;
    out.packed_lanes = after.packed_lanes - before.packed_lanes;
    out.packed_fallbacks = after.packed_fallbacks - before.packed_fallbacks;
    out.composite_groups = after.composite_groups - before.composite_groups;
    out.composite_members =
        after.composite_members - before.composite_members;
    out.pool_tasks = after.pool_tasks - before.pool_tasks;
    out.pool_busy_seconds = after.pool_busy_seconds - before.pool_busy_seconds;
    out.queue_wait = subtract(after.queue_wait, before.queue_wait);
    out.execute = subtract(after.execute, before.execute);
    out.window_wait = subtract(after.window_wait, before.window_wait);
    return out;
}

JsonObject&
JsonObject::raw(const std::string& key, std::string json)
{
    fields_.emplace_back(key, std::move(json));
    return *this;
}

JsonObject&
JsonObject::add(const std::string& key, double value)
{
    if (!std::isfinite(value)) return raw(key, "null");
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    return raw(key, text);
}

JsonObject&
JsonObject::add(const std::string& key, std::uint64_t value)
{
    return raw(key, std::to_string(value));
}

JsonObject&
JsonObject::add(const std::string& key, int value)
{
    return raw(key, std::to_string(value));
}

JsonObject&
JsonObject::add(const std::string& key, bool value)
{
    return raw(key, value ? "true" : "false");
}

JsonObject&
JsonObject::add(const std::string& key, const std::string& value)
{
    return raw(key, quoted(value));
}

JsonObject&
JsonObject::add(const std::string& key, const char* value)
{
    return raw(key, quoted(value));
}

JsonObject&
JsonObject::add(const std::string& key, const JsonObject& value)
{
    return raw(key, value.str());
}

std::string
JsonObject::str() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i) out += ", ";
        out += quoted(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics)
{
    JsonObject values;
    for (const Metric& metric : metrics) {
        values.add(metric.name,
                   JsonObject().add("value", metric.value).add("unit",
                                                               metric.unit));
    }
    return JsonObject()
        .add("correct", correct)
        .add("attempted", attempted)
        .add("failed", failed)
        .add("metrics", values)
        .str();
}

} // namespace chehab::perfbench
