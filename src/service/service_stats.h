/// \file
/// Aggregate service counters and their cross-shard merge.
///
/// ServiceStats is the one snapshot type every reporting surface
/// consumes — chehabd's footer tables, --stats-json, the bench CSVs and
/// checkStatsInvariants(). It lived inside compile_service.h while the
/// service was a singleton; the sharded refactor hoists it here so a
/// ShardedService can fold N per-shard snapshots into one aggregate
/// through a single merge() path.
///
/// Everything in the snapshot is additive by construction: the service
/// counters are monotonic sums, the cache/pool/load-model sub-stats are
/// per-instance counters, and the telemetry histograms share one fixed
/// bucket layout (LatencyHistogram::merge). That additivity is what
/// makes the merge trivially correct — and what keeps every invariant
/// in checkStatsInvariants() closed under merging: the invariants are
/// linear equalities and inequalities over the counters, so if each
/// shard's snapshot satisfies them, the bucket-wise sum does too.
#pragma once

#include <cstdint>
#include <string>

#include "service/cache_key.h"
#include "service/load_model.h"
#include "service/persist.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

namespace chehab::service {

/// Aggregate service counters (monotonic; snapshot via
/// CompileService::stats() or ShardedService::stats()).
struct ServiceStats
{
    std::uint64_t submitted = 0;      ///< Compile requests accepted.
    std::uint64_t compiled = 0;       ///< Owner compiles actually run.
    std::uint64_t failed = 0;         ///< Compiles that threw.
    double total_compile_seconds = 0.0; ///< Sum over owner compiles.

    std::uint64_t run_submitted = 0;  ///< Run requests accepted.
    /// Owner executions actually run: one per solo run and one per
    /// packed group (however many lanes it carried).
    std::uint64_t executed = 0;
    std::uint64_t run_failed = 0;     ///< Runs that failed (either stage).
    double total_exec_seconds = 0.0;  ///< Sum over owner executions.
    std::uint64_t runtimes_created = 0; ///< Pooled FheRuntimes built.
    /// \name Poly-arena counters (summed over every pooled runtime)
    /// Fresh buffers minted vs. acquires served from the freelist, and
    /// total bytes backing minted buffers. Steady-state evaluation on a
    /// warm pool should grow arena_reuses only — a rising arena_allocs
    /// under stable traffic means scratch is leaking past the arena.
    /// @{
    std::uint64_t arena_allocs = 0;
    std::uint64_t arena_reuses = 0;
    std::uint64_t arena_bytes = 0;
    /// @}
    /// Mid-circuit modulus drops the runtime's drop schedule took,
    /// summed over owner executions (solo and packed). Zero unless a
    /// request's pipeline includes the "mod-switch" pass.
    std::uint64_t mod_switch_drops = 0;

    /// \name Slot-batching coalescer
    /// @{
    std::uint64_t packed_groups = 0;  ///< Packed (>= 2 lane) executions.
    std::uint64_t packed_lanes = 0;   ///< Requests served via packed rows.
    std::uint64_t solo_runs = 0;      ///< Owner runs executed unbatched.
    std::uint64_t full_flushes = 0;   ///< Groups flushed at lane capacity.
    std::uint64_t window_flushes = 0; ///< Groups flushed by the window.
    /// Members (per-kernel instruction slices) whose noise budget hit
    /// zero in a packed row and whose lanes were re-executed solo
    /// (solo semantics win over amortization).
    std::uint64_t packed_fallbacks = 0;
    /// Packed executions whose row mixed >= 2 distinct kernels
    /// (a subset of packed_groups).
    std::uint64_t composite_groups = 0;
    /// Distinct-kernel members across those composite rows.
    std::uint64_t composite_members = 0;
    /// Lane-safety verdicts served from the group-identity memo vs.
    /// freshly analyzed (one miss per distinct (artifact, params,
    /// budget) identity).
    std::uint64_t fit_memo_hits = 0;
    std::uint64_t fit_memo_misses = 0;
    /// Composite programs served from the content-addressed composite
    /// cache vs. freshly composed.
    std::uint64_t composite_cache_hits = 0;
    std::uint64_t composite_cache_misses = 0;
    /// @}

    CompileCache::Stats cache;        ///< Hits/misses/evictions etc.
    RunCache::Stats run_cache;
    /// On-disk persistence tier (service/persist.h): artifact loads
    /// served warm from the cache_dir vs. compiled fresh, corrupt
    /// entries skipped, files written. All zero when persistence is
    /// off (ServiceConfig::cache_dir empty).
    PersistStats persist;
    /// Timer-augmented load model activity: profile counts, warm vs
    /// cold predictions, window shrinks, consolidation share advice,
    /// and the instantaneous queued-plus-in-flight load signal the
    /// shard router balances on.
    LoadModelSnapshot load_model;
    /// Worker-pool execution counters (tasks completed, busy seconds).
    ThreadPool::Stats pool;
    /// Per-phase latency histograms + trace-event counters; only
    /// populated (enabled = true) when ServiceConfig::telemetry is on.
    telemetry::TelemetrySnapshot telemetry;

    /// Fold \p other into this snapshot: counters add, the nested
    /// cache/load-model/pool stats add field-wise, and the telemetry
    /// histograms merge bucket-wise (their layout is identical for
    /// every instance). Merging per-shard snapshots this way yields
    /// exactly the aggregate a single service handling the union of
    /// the traffic would have reported — the profile-count fields
    /// (cache entries, load-model profiles) become sums of per-shard
    /// table sizes, which is the resident total across the fleet.
    void merge(const ServiceStats& other);
};

/// Cross-counter consistency check over one stats() snapshot. Returns
/// an empty string when consistent, else a description of the first
/// violated invariant. The always-true invariants hold for any
/// snapshot (stats() freezes the service counters while gathering the
/// cache/pool sub-stats, and every cross-group counter pair is
/// incremented in an order that preserves them mid-flight); with
/// \p quiescent set, the stricter accounting equalities that only hold
/// once every submitted request has resolved are checked too. Every
/// invariant is a linear relation over the counters, so merged
/// multi-shard snapshots satisfy exactly the same checks.
std::string checkStatsInvariants(const ServiceStats& stats,
                                 bool quiescent = false);

} // namespace chehab::service
