#include "service/service_stats.h"

#include <string>

namespace chehab::service {

namespace {

/// CompileCache::Stats and RunCache::Stats are distinct instantiations
/// of the same shape; fold field-wise.
template <typename CacheStats>
void
mergeCache(CacheStats& into, const CacheStats& other)
{
    into.hits += other.hits;
    into.misses += other.misses;
    into.inflight_joins += other.inflight_joins;
    into.entries += other.entries;
    into.evictions += other.evictions;
    into.resident += other.resident;
}

} // namespace

void
ServiceStats::merge(const ServiceStats& other)
{
    submitted += other.submitted;
    compiled += other.compiled;
    failed += other.failed;
    total_compile_seconds += other.total_compile_seconds;

    run_submitted += other.run_submitted;
    executed += other.executed;
    run_failed += other.run_failed;
    total_exec_seconds += other.total_exec_seconds;
    runtimes_created += other.runtimes_created;
    arena_allocs += other.arena_allocs;
    arena_reuses += other.arena_reuses;
    arena_bytes += other.arena_bytes;
    mod_switch_drops += other.mod_switch_drops;

    packed_groups += other.packed_groups;
    packed_lanes += other.packed_lanes;
    solo_runs += other.solo_runs;
    full_flushes += other.full_flushes;
    window_flushes += other.window_flushes;
    packed_fallbacks += other.packed_fallbacks;
    composite_groups += other.composite_groups;
    composite_members += other.composite_members;
    fit_memo_hits += other.fit_memo_hits;
    fit_memo_misses += other.fit_memo_misses;
    composite_cache_hits += other.composite_cache_hits;
    composite_cache_misses += other.composite_cache_misses;

    mergeCache(cache, other.cache);
    mergeCache(run_cache, other.run_cache);

    persist.hits += other.persist.hits;
    persist.misses += other.persist.misses;
    persist.corrupt += other.persist.corrupt;
    persist.writes += other.persist.writes;

    load_model.compile_profiles += other.load_model.compile_profiles;
    load_model.run_profiles += other.load_model.run_profiles;
    load_model.compile_observations +=
        other.load_model.compile_observations;
    load_model.run_observations += other.load_model.run_observations;
    load_model.warm_predictions += other.load_model.warm_predictions;
    load_model.cold_predictions += other.load_model.cold_predictions;
    load_model.share_preferred += other.load_model.share_preferred;
    load_model.solo_preferred += other.load_model.solo_preferred;
    load_model.inflight_jobs += other.load_model.inflight_jobs;
    load_model.inflight_predicted_seconds +=
        other.load_model.inflight_predicted_seconds;

    pool.tasks_run += other.pool.tasks_run;
    pool.busy_seconds += other.pool.busy_seconds;

    telemetry.enabled = telemetry.enabled || other.telemetry.enabled;
    telemetry.events += other.telemetry.events;
    telemetry.dropped += other.telemetry.dropped;
    for (int p = 0; p < telemetry::kPhaseCount; ++p) {
        telemetry.hist[static_cast<std::size_t>(p)].merge(
            other.telemetry.hist[static_cast<std::size_t>(p)]);
    }
}

std::string
checkStatsInvariants(const ServiceStats& stats, bool quiescent)
{
    const auto fail = [](const char* what, std::uint64_t lhs,
                         std::uint64_t rhs) {
        return std::string("stats invariant violated: ") + what + " (" +
               std::to_string(lhs) + " vs " + std::to_string(rhs) + ")";
    };

    // Always-true invariants. Counters on each side of an equality are
    // incremented inside one stats_mutex_ critical section, and every
    // inequality pairs a frozen counter with one that is only
    // incremented strictly earlier (or read after the freeze), so these
    // hold for any stats() snapshot — mid-flight included. Each is a
    // linear relation, so they survive cross-shard merging unchanged.
    if (stats.executed != stats.solo_runs + stats.packed_groups) {
        return fail("executed == solo_runs + packed_groups",
                    stats.executed, stats.solo_runs + stats.packed_groups);
    }
    if (stats.composite_groups > stats.packed_groups) {
        return fail("composite_groups <= packed_groups",
                    stats.composite_groups, stats.packed_groups);
    }
    if (stats.composite_members < 2 * stats.composite_groups) {
        return fail("composite_members >= 2 * composite_groups",
                    stats.composite_members, 2 * stats.composite_groups);
    }
    if (stats.packed_groups > stats.full_flushes + stats.window_flushes) {
        return fail("packed_groups <= full_flushes + window_flushes",
                    stats.packed_groups,
                    stats.full_flushes + stats.window_flushes);
    }
    // Every cache miss resolves as a fresh compile, a compile failure
    // or a warm artifact load from the persistence tier.
    if (stats.compiled + stats.failed + stats.persist.hits >
        stats.cache.misses) {
        return fail("compiled + failed + persist.hits <= cache.misses",
                    stats.compiled + stats.failed + stats.persist.hits,
                    stats.cache.misses);
    }
    // Persistence lookups only happen for cache-miss owners, and each
    // lookup is a hit or a miss (corrupt being the skipped subset of
    // the misses).
    if (stats.persist.hits + stats.persist.misses > stats.cache.misses) {
        return fail("persist.hits + persist.misses <= cache.misses",
                    stats.persist.hits + stats.persist.misses,
                    stats.cache.misses);
    }
    if (stats.packed_lanes + stats.solo_runs + stats.run_failed >
        stats.run_cache.misses) {
        return fail(
            "packed_lanes + solo_runs + run_failed <= run_cache.misses",
            stats.packed_lanes + stats.solo_runs + stats.run_failed,
            stats.run_cache.misses);
    }
    // Drops are only counted inside the executed-owner stats blocks, so
    // a non-zero counter implies at least one execution happened.
    if (stats.mod_switch_drops > 0 && stats.executed == 0) {
        return fail("mod_switch_drops > 0 implies executed > 0",
                    stats.mod_switch_drops, stats.executed);
    }
    // Arena traffic only exists inside pooled runtimes, so any counter
    // activity implies at least one runtime was constructed.
    if ((stats.arena_allocs > 0 || stats.arena_reuses > 0) &&
        stats.runtimes_created == 0) {
        return fail("arena activity implies runtimes_created > 0",
                    stats.arena_allocs + stats.arena_reuses,
                    stats.runtimes_created);
    }

    if (!quiescent) return {};

    // Quiescent accounting equalities: every accepted request has
    // resolved, so admissions balance against outcomes exactly.
    const std::uint64_t cache_acquires =
        stats.cache.hits + stats.cache.inflight_joins + stats.cache.misses;
    const std::uint64_t run_acquires = stats.run_cache.hits +
                                       stats.run_cache.inflight_joins +
                                       stats.run_cache.misses;
    if (run_acquires != stats.run_submitted) {
        return fail("run-cache acquires == run_submitted", run_acquires,
                    stats.run_submitted);
    }
    // Compile acquires: one per compile request plus one per run-cache
    // owner (only run owners touch the kernel cache).
    if (cache_acquires != stats.submitted + stats.run_cache.misses) {
        return fail("cache acquires == submitted + run_cache.misses",
                    cache_acquires,
                    stats.submitted + stats.run_cache.misses);
    }
    if (stats.cache.misses !=
        stats.compiled + stats.failed + stats.persist.hits) {
        return fail("cache.misses == compiled + failed + persist.hits",
                    stats.cache.misses,
                    stats.compiled + stats.failed + stats.persist.hits);
    }
    if (stats.run_cache.misses !=
        stats.packed_lanes + stats.solo_runs + stats.run_failed) {
        return fail(
            "run_cache.misses == packed_lanes + solo_runs + run_failed",
            stats.run_cache.misses,
            stats.packed_lanes + stats.solo_runs + stats.run_failed);
    }
    // The queued-plus-in-flight load signal drains to zero once every
    // admitted job has published: enqueue/finish pairs are exact.
    if (stats.load_model.inflight_jobs != 0) {
        return fail("load_model.inflight_jobs == 0 at quiescence",
                    stats.load_model.inflight_jobs, 0);
    }
    return {};
}

} // namespace chehab::service
