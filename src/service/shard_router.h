/// \file
/// Two-level service sharding: N independent CompileService shards
/// behind a ShardRouter.
///
/// Level 1 (this file) spreads *requests* across shards; level 2 (each
/// shard's own ThreadPool) spreads *tasks* across workers. One big
/// CompileService scales until its shared serialization points — the
/// pool's priority-queue mutex, the coalescer's batch_mutex_, the
/// stats mutex, the single-flight cache maps — become the bottleneck;
/// splitting the fleet into shards multiplies every one of those locks
/// by N while keeping each shard's cache hot for the keys routed to
/// it.
///
/// Routing policy, per traffic class:
///
///   - Compile traffic routes by **cache affinity**: the CacheKey
///     consistent-hashes onto a vnode ring, so one kernel always lands
///     on one shard — its compile cache hits, its single-flight dedupe
///     collapses concurrent identical compiles, and no artifact is
///     compiled N times. The ring (64 vnodes per shard, sorted hash
///     points) keeps the mapping stable under shard-count changes:
///     growing N -> N+1 shards only remaps the ~1/(N+1) of keys the
///     new shard's vnodes capture; every other key keeps its shard and
///     its warm cache.
///   - Run traffic routes by **predicted load** with an affinity
///     preference: a run request first consults its affinity shard
///     (that is where the kernel cache and run cache for its key are
///     warm). Only when that shard is *hot* — its predicted in-flight
///     seconds (LoadModel::inflightPredictedSeconds, the per-shard
///     load signal) exceed twice the least-loaded shard's plus 10 ms of
///     slack — does the router re-route to the least-loaded shard. The
///     factor makes the test relative; the slack keeps tiny loads from
///     triggering re-routes, since when every shard holds milliseconds
///     of work, cache affinity is worth more than perfect balance.
///     This is the work-stealing hook: a skewed mix that piles onto
///     one shard spills its overflow to idle shards instead of
///     queueing, at the price of a cold compile cache on the stealing
///     shard (single-flight still collapses the duplicates there).
///
/// Determinism: routing only selects *where* a request executes.
/// Pipelines are deterministic and runtimes reseed per request, so
/// outputs, noise accounting and instruction streams are bit-identical
/// at any shard count x any worker count — a 1-shard ShardedService
/// behaves exactly like a plain CompileService (it routes everything
/// to its only shard).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "service/cache_key.h"
#include "service/compile_service.h"
#include "service/service_api.h"

namespace chehab::service {

/// Monotonic routing counters (snapshot via ShardRouter::stats()).
struct RouterStats
{
    std::uint64_t compile_routed = 0;  ///< Compile routing decisions.
    std::uint64_t run_affinity = 0;    ///< Runs kept on their affinity shard.
    std::uint64_t run_rerouted = 0;    ///< Runs stolen by a cooler shard.
};

/// The routing policy alone — pure decision logic over a CacheKey and
/// a load vector, no service ownership — so tests can exercise ring
/// distribution, stability and hot-shard re-routing without spinning
/// up worker pools.
class ShardRouter
{
  public:
    /// Builds the vnode ring for \p shards shards. \p shards must be
    /// >= 1 (throws std::invalid_argument otherwise).
    explicit ShardRouter(int shards);

    int shards() const { return shards_; }

    /// The shard whose ring arc \p key hashes into: where compile
    /// traffic for this key always goes, and where run traffic
    /// prefers to go. Deterministic and stable under shard-count
    /// growth (only keys on the new shard's arcs move).
    int affinityShard(const CacheKey& key) const;

    /// Route one compile request (counts the decision).
    int routeCompile(const CacheKey& key);

    /// Route one run request: the affinity shard unless it is hot
    /// relative to the least-loaded one (see the file comment), in
    /// which case the least-loaded shard steals the work.
    /// \p predicted_loads holds each shard's predicted in-flight
    /// seconds, indexed by shard id; it must have shards() entries.
    int routeRun(const CacheKey& key,
                 const std::vector<double>& predicted_loads);

    RouterStats stats() const;

  private:
    struct VNode
    {
        std::uint64_t point;
        int shard;
    };

    int shards_;
    std::vector<VNode> ring_; ///< Sorted by point; immutable after ctor.

    mutable std::mutex stats_mutex_;
    RouterStats stats_;
};

/// N CompileService shards behind a ShardRouter, presenting the same
/// ServiceApi as a single shard. See the file comment for the routing
/// policy and the determinism contract.
class ShardedService final : public ServiceApi
{
  public:
    /// Builds config.shards shards, each a CompileService with this
    /// config (config.num_workers is per shard; shard i runs with
    /// shard_id = i, which groups its telemetry tracks under "shard i"
    /// in exported traces). Throws std::invalid_argument when
    /// config.validate() rejects the configuration.
    explicit ShardedService(ServiceConfig config);

    /// Routes by cache affinity on the request's CacheKey.
    std::future<CompileResponse> submit(CompileRequest request) override;

    /// Routes by predicted load with affinity preference.
    std::future<RunResponse> submitRun(RunRequest request) override;

    /// Counters merged across all shards (ServiceStats::merge); the
    /// merged snapshot satisfies every checkStatsInvariants relation
    /// the per-shard ones do, the invariants being additive.
    ServiceStats stats() const override;

    /// One shard's own snapshot (for per-shard breakdowns).
    ServiceStats shardStats(int shard) const;

    /// Direct access to one shard, bypassing the router — benches and
    /// tests use this to pre-warm per-shard caches or inspect a single
    /// shard's state. Production traffic goes through submit/submitRun.
    CompileService& shard(int index)
    {
        return *shards_.at(static_cast<std::size_t>(index));
    }

    int shards() const { return static_cast<int>(shards_.size()); }
    int numWorkers() const override;

    void drain() override;

    const ShardRouter& router() const { return router_; }
    RouterStats routerStats() const { return router_.stats(); }

    /// Export one Chrome trace covering every shard: each shard's
    /// spans appear under their own "shard N" track group (pid), with
    /// all timestamps aligned onto one common epoch
    /// (telemetry::writeChromeTraceMerged).
    void writeChromeTrace(std::ostream& out) const;

  private:
    /// The routing key for \p source under \p pipeline, or false when
    /// the source fails canonicalization — the caller then routes to
    /// shard 0, whose submit reproduces the identical error response.
    static bool routingKey(const ir::ExprPtr& source,
                           const compiler::DriverConfig& pipeline,
                           CacheKey& out);

    std::vector<double> predictedLoads() const;

    ShardRouter router_;
    std::vector<std::unique_ptr<CompileService>> shards_;
};

} // namespace chehab::service
