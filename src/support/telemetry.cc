#include "support/telemetry.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <string>
#include <thread>

namespace chehab::telemetry {

const char*
phaseName(Phase phase)
{
    switch (phase) {
    case Phase::Enqueue: return "enqueue";
    case Phase::QueueWait: return "queue_wait";
    case Phase::Compile: return "compile";
    case Phase::Execute: return "execute";
    case Phase::Setup: return "setup";
    case Phase::Evaluate: return "evaluate";
    case Phase::Decode: return "decode";
    case Phase::WindowWait: return "window_wait";
    }
    return "unknown";
}

int
LatencyHistogram::bucketIndex(double seconds)
{
    if (!(seconds >= kMinSeconds)) return 0; // Underflow, negatives, NaN.
    const double octaves = std::log2(seconds / kMinSeconds) * kSubBuckets;
    // Overflow check before the int cast: casting an out-of-range (or
    // infinite) double to int is undefined behaviour.
    if (octaves >= static_cast<double>(kOctaves * kSubBuckets)) {
        return kBucketCount - 1;
    }
    int index = std::clamp(1 + static_cast<int>(std::floor(octaves)), 1,
                           kBucketCount - 2);
    // log2 rounding can land exactly-on-boundary samples one bucket
    // off; nudge so the index always agrees with the bound functions
    // (bucketLowerBound(i) inclusive, bucketUpperBound(i) exclusive).
    if (seconds >= bucketUpperBound(index)) {
        ++index;
    } else if (seconds < bucketLowerBound(index)) {
        --index;
    }
    return std::clamp(index, 1, kBucketCount - 1);
}

double
LatencyHistogram::bucketLowerBound(int index)
{
    if (index <= 0) return 0.0;
    return kMinSeconds *
           std::exp2(static_cast<double>(index - 1) / kSubBuckets);
}

double
LatencyHistogram::bucketUpperBound(int index)
{
    if (index >= kBucketCount - 1) {
        return std::numeric_limits<double>::infinity();
    }
    return kMinSeconds * std::exp2(static_cast<double>(index) / kSubBuckets);
}

void
LatencyHistogram::record(double seconds)
{
    ++buckets_[static_cast<std::size_t>(bucketIndex(seconds))];
    ++count_;
    sum_ += seconds;
    min_ = std::min(min_, seconds);
    max_ = std::max(max_, seconds);
}

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    for (int i = 0; i < kBucketCount; ++i) {
        buckets_[static_cast<std::size_t>(i)] +=
            other.buckets_[static_cast<std::size_t>(i)];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
LatencyHistogram::percentile(double p) const
{
    if (count_ == 0) return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Nearest rank: the k-th smallest sample, k = ceil(p/100 * n),
    // clamped to [1, n] so p = 0 degenerates to the minimum.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    // A bucket's representative can lie outside the observed samples
    // (a p99 above the max). Clamping to [min, max] keeps it in the
    // rank's bucket: that bucket holds the rank sample, which lies
    // between min and max.
    const auto observed = [this](double seconds) {
        return min_ <= max_ ? std::clamp(seconds, min_, max_) : seconds;
    };
    std::uint64_t seen = 0;
    for (int i = 0; i < kBucketCount; ++i) {
        seen += buckets_[static_cast<std::size_t>(i)];
        if (seen < rank) continue;
        if (i == 0) return observed(kMinSeconds / 2.0);
        if (i == kBucketCount - 1) return observed(bucketLowerBound(i));
        // Geometric midpoint: stays inside the half-open bucket, so
        // bucketIndex(percentile(p)) == bucketIndex(exact percentile).
        return observed(std::sqrt(bucketLowerBound(i) * bucketUpperBound(i)));
    }
    return max_; // Unreachable: counts_ sums to count_.
}

TraceRecorder::TraceRecorder(bool enabled, std::size_t max_events_per_shard)
    : enabled_(enabled), max_events_per_shard_(max_events_per_shard),
      epoch_(std::chrono::steady_clock::now())
{}

std::int64_t
TraceRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
TraceRecorder::clientTid()
{
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return kClientTidBase + static_cast<int>(h % 64);
}

TraceRecorder::Shard&
TraceRecorder::shardForThisThread()
{
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return shards_[h % kShards];
}

void
TraceRecorder::observe(Phase phase, double seconds)
{
    if (!enabled()) return;
    Shard& shard = shardForThisThread();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.hist[static_cast<std::size_t>(phase)].record(seconds);
}

void
TraceRecorder::span(const char* name, int tid, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request_id,
                    const std::pair<const char*, double>* args, int narg)
{
    if (!enabled()) return;
    TraceEvent event;
    event.name = name;
    event.request_id = request_id;
    event.tid = tid;
    event.start_ns = start_ns;
    event.end_ns = std::max(end_ns, start_ns);
    for (int i = 0; i < narg && event.narg < 3; ++i) {
        event.arg_keys[static_cast<std::size_t>(event.narg)] = args[i].first;
        event.arg_vals[static_cast<std::size_t>(event.narg)] = args[i].second;
        ++event.narg;
    }
    Shard& shard = shardForThisThread();
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.events.size() >= max_events_per_shard_) {
        ++shard.dropped;
        return;
    }
    shard.events.push_back(event);
}

void
TraceRecorder::instant(const char* name, int tid, std::uint64_t request_id,
                       Args args)
{
    if (!enabled()) return;
    const std::int64_t now = nowNs();
    span(name, tid, now, now, request_id, args);
}

TelemetrySnapshot
TraceRecorder::snapshot() const
{
    TelemetrySnapshot snap;
    snap.enabled = enabled();
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        snap.events += shard.events.size();
        snap.dropped += shard.dropped;
        for (int p = 0; p < kPhaseCount; ++p) {
            snap.hist[static_cast<std::size_t>(p)].merge(
                shard.hist[static_cast<std::size_t>(p)]);
        }
    }
    return snap;
}

std::vector<TraceEvent>
TraceRecorder::events() const
{
    std::vector<TraceEvent> all;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        all.insert(all.end(), shard.events.begin(), shard.events.end());
    }
    std::sort(all.begin(), all.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  if (a.start_ns != b.start_ns) {
                      return a.start_ns < b.start_ns;
                  }
                  // Longer spans first so enclosing spans precede their
                  // children at equal starts.
                  if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
                  return a.tid < b.tid;
              });
    return all;
}

namespace {

/// Human name for a track id in the exported trace.
std::string
trackName(int tid)
{
    if (tid >= TraceRecorder::kClientTidBase) {
        return "client " +
               std::to_string(tid - TraceRecorder::kClientTidBase);
    }
    if (tid >= TraceRecorder::kFlusherTid) return "flusher";
    return "worker " + std::to_string(tid);
}

void
writeArgs(std::ostream& out, const TraceEvent& event)
{
    out << "\"args\":{";
    bool first = true;
    if (event.request_id != 0) {
        out << "\"rid\":" << event.request_id;
        first = false;
    }
    for (int i = 0; i < event.narg; ++i) {
        if (!first) out << ",";
        out << "\"" << event.arg_keys[static_cast<std::size_t>(i)]
            << "\":" << event.arg_vals[static_cast<std::size_t>(i)];
        first = false;
    }
    out << "}";
}

} // namespace

void
TraceRecorder::writeChromeTrace(std::ostream& out) const
{
    writeChromeTraceMerged(out, {this});
}

void
writeChromeTraceMerged(std::ostream& out,
                       const std::vector<const TraceRecorder*>& recorders)
{
    // Every recorder measures nanoseconds against its own construction
    // instant; align all of them onto the earliest epoch so spans from
    // different shards keep their true relative timing in the viewer.
    std::chrono::steady_clock::time_point min_epoch{};
    bool have_epoch = false;
    for (const TraceRecorder* recorder : recorders) {
        if (!recorder) continue;
        if (!have_epoch || recorder->epoch() < min_epoch) {
            min_epoch = recorder->epoch();
            have_epoch = true;
        }
    }

    // Full precision: timestamp rounding must not reorder or un-nest
    // spans in the viewer.
    out << std::setprecision(15);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto micros = [](std::int64_t ns) {
        return static_cast<double>(ns) / 1e3;
    };
    for (const TraceRecorder* recorder : recorders) {
        if (!recorder) continue;
        const int pid = recorder->trackGroup();
        const std::int64_t offset_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                recorder->epoch() - min_epoch)
                .count();
        const std::vector<TraceEvent> all = recorder->events();
        // Track-group label: one collapsible "shard N" group per
        // recorder (pid = shard id + 1).
        if (!first) out << ",";
        first = false;
        out << "{\"ph\":\"M\",\"pid\":" << pid
            << ",\"name\":\"process_name\",\"args\":{\"name\":\"shard "
            << pid - 1 << "\"}}";
        // One thread_name metadata record per distinct track, so
        // Perfetto labels worker/flusher/client rows instead of bare
        // tids.
        std::vector<int> tids;
        for (const TraceEvent& event : all) tids.push_back(event.tid);
        std::sort(tids.begin(), tids.end());
        tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
        for (int tid : tids) {
            out << ",{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
                << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                << trackName(tid) << "\"}}";
        }
        for (const TraceEvent& event : all) {
            out << ",{\"pid\":" << pid << ",\"tid\":" << event.tid
                << ",\"name\":\"" << event.name
                << "\",\"ts\":" << micros(event.start_ns + offset_ns);
            if (event.isInstant()) {
                out << ",\"ph\":\"i\",\"s\":\"t\",";
            } else {
                out << ",\"ph\":\"X\",\"dur\":"
                    << micros(event.end_ns - event.start_ns) << ",";
            }
            writeArgs(out, event);
            out << "}";
        }
    }
    out << "]}\n";
}

} // namespace chehab::telemetry
