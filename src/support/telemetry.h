/// \file
/// Request-lifecycle tracing + latency histograms: the telemetry layer
/// every scheduling subsystem (dispatch, packing, execution) reports
/// through.
///
/// Two primitives, both compiled in unconditionally and gated at run
/// time by one atomic flag (a disabled recorder costs one relaxed load
/// per call site):
///
///   - LatencyHistogram — a fixed-layout log-bucketed histogram of
///     seconds: 4 buckets per octave from 1 us to ~67 s plus underflow
///     and overflow buckets. The layout is identical for every
///     instance, so histograms merge by bucket-wise addition (shard
///     merging, cross-process aggregation). Percentiles are
///     nearest-rank over the bucket counts: the returned value is the
///     geometric midpoint of the bucket holding the rank, clamped to
///     the exact min/max, so it always lands in the same bucket as the
///     exact sorted-reference percentile (the guarantee the tests pin
///     down) and never outside the observed range. Exact min/max/
///     sum/count ride alongside the buckets.
///
///   - TraceRecorder — a mutex-sharded recorder of lifecycle spans and
///     instant events plus one LatencyHistogram per Phase. Threads hash
///     onto kShards independent shards (each its own mutex + buffers),
///     so concurrent workers never contend on one lock and the whole
///     recorder is TSan-clean. Spans carry a static name, a track id
///     (worker index, or the client/flusher pseudo-tracks), monotonic
///     start/end nanoseconds against the recorder's epoch, an optional
///     request id for cross-track correlation, and up to three numeric
///     key/value args (predicted vs. measured seconds, lane counts...).
///     Span buffers are capped per shard; overflow increments a dropped
///     counter instead of growing without bound.
///
/// Exporters: writeChromeTrace() emits Chrome trace-event JSON
/// (chrome://tracing / Perfetto loadable — "X" complete events nested
/// by enclosure, one named track per worker thread, "i" instants for
/// point events); snapshot() returns the merged histograms for
/// ServiceStats / CSV / JSON reporting.
///
/// Determinism contract: telemetry only reads clocks and appends to
/// its own buffers — enabling it never changes scheduling decisions or
/// outputs (the service test asserts bit-identical outputs with
/// tracing on vs. off).
///
/// Thread-safety: every member function may be called concurrently
/// from any thread. Span/instant names must be string literals (or
/// otherwise outlive the recorder): events store the pointer, not a
/// copy — that keeps the record path allocation-free.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

namespace chehab::telemetry {

/// Lifecycle phases with a latency histogram each. Kept in lockstep
/// with phaseName().
enum class Phase : int {
    Enqueue = 0, ///< submit()/submitRun() admission work (client side).
    QueueWait,   ///< Pool enqueue -> task start on a worker.
    Compile,     ///< Owner compile wall time.
    Execute,     ///< Owner execution wall time (whole row: setup +
                 ///< evaluate + decode).
    Setup,       ///< Galois keygen + packing + encoding + encryption.
    Evaluate,    ///< Server-side homomorphic evaluation.
    Decode,      ///< Decryption + decoding + per-lane scatter.
    WindowWait,  ///< Coalescer arrival -> group flush dispatch.
};
inline constexpr int kPhaseCount = 8;

/// Stable snake_case phase name ("queue_wait", "window_wait", ...).
const char* phaseName(Phase phase);

/// Fixed-layout log-bucketed latency histogram (seconds). Not
/// internally synchronized — the TraceRecorder shards it; standalone
/// uses must synchronize externally.
class LatencyHistogram
{
  public:
    /// Lower bound of the first regular bucket; everything below lands
    /// in the underflow bucket 0.
    static constexpr double kMinSeconds = 1e-6;
    /// Buckets per power of two (bucket width ratio 2^(1/4) ~ 19%).
    static constexpr int kSubBuckets = 4;
    /// Octaves covered by regular buckets: 1 us * 2^26 ~ 67 s; slower
    /// samples land in the overflow bucket.
    static constexpr int kOctaves = 26;
    /// Underflow + regular + overflow.
    static constexpr int kBucketCount = kOctaves * kSubBuckets + 2;

    /// Bucket holding \p seconds: 0 = underflow (including negatives),
    /// kBucketCount - 1 = overflow. Monotone in seconds.
    static int bucketIndex(double seconds);
    /// Inclusive lower bound of \p index (0.0 for the underflow
    /// bucket).
    static double bucketLowerBound(int index);
    /// Exclusive upper bound of \p index (+inf for the overflow
    /// bucket).
    static double bucketUpperBound(int index);

    void record(double seconds);
    /// Bucket-wise addition; min/max/sum/count fold in too. Layouts
    /// are identical by construction, so any two histograms merge.
    void merge(const LatencyHistogram& other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return max_; }

    /// Nearest-rank percentile (\p p in [0, 100]): the geometric
    /// midpoint of the bucket containing the rank-ceil(p/100 * count)
    /// sample, clamped to [min(), max()] — guaranteed to share a bucket
    /// with the exact sorted reference, and never outside the observed
    /// range. 0.0 on an empty histogram.
    double percentile(double p) const;

    const std::array<std::uint64_t, kBucketCount>& buckets() const
    {
        return buckets_;
    }

  private:
    std::array<std::uint64_t, kBucketCount> buckets_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = 0.0;
};

/// One recorded span (end_ns > start_ns) or instant event
/// (end_ns == start_ns). \c name points at a string literal.
struct TraceEvent
{
    const char* name = nullptr;
    std::uint64_t request_id = 0; ///< 0 = not tied to one request.
    int tid = 0;                  ///< Track: worker index or pseudo-tid.
    std::int64_t start_ns = 0;    ///< Against the recorder's epoch.
    std::int64_t end_ns = 0;
    int narg = 0;
    std::array<const char*, 3> arg_keys{};
    std::array<double, 3> arg_vals{};

    bool isInstant() const { return end_ns == start_ns; }
};

/// Merged histograms + counters, embedded in ServiceStats::telemetry.
struct TelemetrySnapshot
{
    bool enabled = false;
    std::uint64_t events = 0;  ///< Spans + instants currently buffered.
    std::uint64_t dropped = 0; ///< Events lost to the per-shard cap.
    std::array<LatencyHistogram, kPhaseCount> hist;

    const LatencyHistogram& phase(Phase p) const
    {
        return hist[static_cast<std::size_t>(p)];
    }
};

class TraceRecorder
{
  public:
    /// Track ids: workers use their pool index (0-based); these
    /// pseudo-tracks keep non-worker threads distinguishable in the
    /// exported trace.
    static constexpr int kFlusherTid = 900;
    static constexpr int kClientTidBase = 1000;

    /// \p max_events_per_shard bounds each shard's span buffer; events
    /// past the cap are counted in dropped instead of stored.
    explicit TraceRecorder(bool enabled = false,
                           std::size_t max_events_per_shard = 1u << 16);

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /// Chrome-trace track group ("pid") this recorder's events export
    /// under: each service shard sets its own group, so a merged
    /// multi-shard trace shows one collapsible track group per shard
    /// (shard N exports as pid N + 1; the default group 1 keeps
    /// single-service traces byte-compatible with the pre-sharding
    /// export).
    void setTrackGroup(int group)
    {
        track_group_.store(group, std::memory_order_relaxed);
    }
    int trackGroup() const
    {
        return track_group_.load(std::memory_order_relaxed);
    }

    /// This recorder's epoch (nowNs() == 0 instant). Recorders are
    /// constructed at different times, so a merged export must shift
    /// each recorder's timestamps onto one shared epoch — see
    /// writeChromeTraceMerged.
    std::chrono::steady_clock::time_point epoch() const { return epoch_; }
    /// The one gate every call site checks first; a disabled recorder
    /// reduces every record call to this load.
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Monotonic nanoseconds since this recorder's construction.
    std::int64_t nowNs() const;

    /// Stable pseudo-track id for the calling (non-worker) thread, in
    /// [kClientTidBase, kClientTidBase + 64).
    static int clientTid();

    /// Record \p seconds into \p phase's histogram.
    void observe(Phase phase, double seconds);

    using Args = std::initializer_list<std::pair<const char*, double>>;

    /// Record a completed span. \p name must be a string literal; at
    /// most 3 args are kept.
    void
    span(const char* name, int tid, std::int64_t start_ns,
         std::int64_t end_ns, std::uint64_t request_id = 0, Args args = {})
    {
        span(name, tid, start_ns, end_ns, request_id, args.begin(),
             static_cast<int>(args.size()));
    }

    /// Pointer-range form of span() for callers that assemble args
    /// dynamically (ScopedSpan).
    void span(const char* name, int tid, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t request_id,
              const std::pair<const char*, double>* args, int narg);

    /// Record a point event at now.
    void instant(const char* name, int tid, std::uint64_t request_id = 0,
                 Args args = {});

    /// Merged histograms + event counters across all shards.
    TelemetrySnapshot snapshot() const;

    /// Every buffered event, merged across shards and sorted by
    /// (start_ns, tid).
    std::vector<TraceEvent> events() const;

    /// Emit the buffered events as Chrome trace-event JSON (loads in
    /// chrome://tracing and Perfetto): "X" complete events in
    /// microseconds, "i" instants, thread_name metadata per track.
    void writeChromeTrace(std::ostream& out) const;

  private:
    static constexpr int kShards = 16;

    struct Shard
    {
        mutable std::mutex mutex;
        std::vector<TraceEvent> events;
        std::array<LatencyHistogram, kPhaseCount> hist;
        std::uint64_t dropped = 0;
    };

    Shard& shardForThisThread();

    std::atomic<bool> enabled_;
    /// Export-time track group (see setTrackGroup); atomic so a late
    /// setter never races a concurrent exporter.
    std::atomic<int> track_group_{1};
    const std::size_t max_events_per_shard_;
    std::chrono::steady_clock::time_point epoch_;
    std::array<Shard, kShards> shards_;
};

/// Emit the buffered events of several recorders as one Chrome
/// trace-event JSON document: every recorder's events appear under its
/// own track group (pid = trackGroup(), with a "shard N" process_name
/// label), timestamps are aligned onto the earliest recorder's epoch,
/// and each (group, tid) track keeps its thread_name metadata. The
/// sharded service exports its per-shard recorders through this — one
/// collapsible track group per shard in chrome://tracing / Perfetto.
/// Null entries are skipped.
void writeChromeTraceMerged(std::ostream& out,
                            const std::vector<const TraceRecorder*>& recorders);

/// RAII span: captures start at construction, records at destruction
/// (when the recorder is enabled). Args may be attached mid-flight.
class ScopedSpan
{
  public:
    ScopedSpan(TraceRecorder& recorder, const char* name, int tid,
               std::uint64_t request_id = 0)
        : recorder_(recorder.enabled() ? &recorder : nullptr), name_(name),
          tid_(tid), request_id_(request_id),
          start_ns_(recorder_ ? recorder.nowNs() : 0)
    {}

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /// Attach one numeric arg (first 3 kept).
    void
    arg(const char* key, double value)
    {
        if (!recorder_ || narg_ >= 3) return;
        keys_[static_cast<std::size_t>(narg_)] = key;
        vals_[static_cast<std::size_t>(narg_)] = value;
        ++narg_;
    }

    ~ScopedSpan()
    {
        if (!recorder_) return;
        std::array<std::pair<const char*, double>, 3> pairs;
        for (int i = 0; i < narg_; ++i) {
            pairs[static_cast<std::size_t>(i)] = {
                keys_[static_cast<std::size_t>(i)],
                vals_[static_cast<std::size_t>(i)]};
        }
        recorder_->span(name_, tid_, start_ns_, recorder_->nowNs(),
                        request_id_, pairs.data(), narg_);
    }

  private:
    TraceRecorder* recorder_; ///< Null when recording was disabled.
    const char* name_;
    int tid_;
    std::uint64_t request_id_;
    std::int64_t start_ns_;
    int narg_ = 0;
    std::array<const char*, 3> keys_{};
    std::array<double, 3> vals_{};
};

} // namespace chehab::telemetry
