#include "service/shard_router.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "compiler/passes.h"
#include "support/error.h"

namespace chehab::service {

namespace {

/// Virtual nodes per shard on the consistent-hash ring. More vnodes
/// flatten the key distribution (the classic variance reduction) at
/// O(shards x vnodes) ring size; 64 keeps the per-shard share within a
/// few percent of uniform.
constexpr int kVnodes = 64;
/// A run request abandons its affinity shard when that shard's
/// predicted load exceeds kHotFactor x the minimum shard load plus
/// kHotSlackSeconds.
constexpr double kHotFactor = 2.0;
constexpr double kHotSlackSeconds = 0.010;

/// splitmix64 finalizer: the ring needs well-spread 64-bit points from
/// sequential (shard, vnode) pairs, and key lookups need the CacheKey
/// hash whitened the same way so arcs and keys land in one space.
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
ringPoint(const CacheKey& key)
{
    return mix64(static_cast<std::uint64_t>(CacheKeyHash{}(key)));
}

} // namespace

ShardRouter::ShardRouter(int shards) : shards_(shards)
{
    if (shards < 1) {
        throw std::invalid_argument("ShardRouter: shards must be >= 1 "
                                    "(got " +
                                    std::to_string(shards) + ")");
    }
    ring_.reserve(static_cast<std::size_t>(shards) *
                  static_cast<std::size_t>(kVnodes));
    for (int shard = 0; shard < shards; ++shard) {
        for (int vnode = 0; vnode < kVnodes; ++vnode) {
            // A shard's vnode points depend only on (shard, vnode) —
            // never on the total shard count — which is what makes the
            // mapping stable under growth: shard N+1's points are
            // *added* to the ring, every existing point stays put.
            const std::uint64_t point =
                mix64((static_cast<std::uint64_t>(shard) << 32) |
                      static_cast<std::uint64_t>(vnode));
            ring_.push_back(VNode{point, shard});
        }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const VNode& a, const VNode& b) {
                  if (a.point != b.point) return a.point < b.point;
                  return a.shard < b.shard;
              });
}

int
ShardRouter::affinityShard(const CacheKey& key) const
{
    if (shards_ == 1) return 0;
    const std::uint64_t point = ringPoint(key);
    // The key belongs to the first vnode at or past its point,
    // wrapping to the ring's start past the last arc.
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), point,
        [](const VNode& node, std::uint64_t p) { return node.point < p; });
    if (it == ring_.end()) it = ring_.begin();
    return it->shard;
}

int
ShardRouter::routeCompile(const CacheKey& key)
{
    const int shard = affinityShard(key);
    {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        ++stats_.compile_routed;
    }
    return shard;
}

int
ShardRouter::routeRun(const CacheKey& key,
                      const std::vector<double>& predicted_loads)
{
    const int affinity = affinityShard(key);
    if (shards_ == 1 ||
        predicted_loads.size() != static_cast<std::size_t>(shards_)) {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        ++stats_.run_affinity;
        return affinity;
    }
    int coolest = 0;
    for (int shard = 1; shard < shards_; ++shard) {
        if (predicted_loads[static_cast<std::size_t>(shard)] <
            predicted_loads[static_cast<std::size_t>(coolest)]) {
            coolest = shard;
        }
    }
    const double affinity_load =
        predicted_loads[static_cast<std::size_t>(affinity)];
    const double min_load =
        predicted_loads[static_cast<std::size_t>(coolest)];
    // Hot test: relative to the idlest shard, with absolute slack so
    // near-empty fleets never trade cache affinity for microseconds.
    const bool hot =
        affinity_load > kHotFactor * min_load + kHotSlackSeconds;
    const int target = hot ? coolest : affinity;
    {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        if (target == affinity) {
            ++stats_.run_affinity;
        } else {
            ++stats_.run_rerouted;
        }
    }
    return target;
}

RouterStats
ShardRouter::stats() const
{
    std::unique_lock<std::mutex> lock(stats_mutex_);
    return stats_;
}

ShardedService::ShardedService(ServiceConfig config)
    : router_(std::max(config.shards, 1))
{
    const std::string problem = config.validate();
    if (!problem.empty()) {
        throw std::invalid_argument("ServiceConfig: " + problem);
    }
    shards_.reserve(static_cast<std::size_t>(config.shards));
    for (int shard = 0; shard < config.shards; ++shard) {
        ServiceConfig shard_config = config;
        shard_config.shard_id = shard;
        shards_.push_back(
            std::make_unique<CompileService>(shard_config));
    }
}

bool
ShardedService::routingKey(const ir::ExprPtr& source,
                           const compiler::DriverConfig& pipeline,
                           CacheKey& out)
{
    try {
        if (!source) return false;
        out = makeCacheKey(compiler::canonicalize(source), pipeline);
        return true;
    } catch (const std::exception&) {
        // The shard's own submit re-canonicalizes and produces the
        // identical error response; routing only has to be
        // deterministic, and "always shard 0" is.
        return false;
    }
}

std::vector<double>
ShardedService::predictedLoads() const
{
    std::vector<double> loads;
    loads.reserve(shards_.size());
    for (const std::unique_ptr<CompileService>& shard : shards_) {
        loads.push_back(shard->predictedLoadSeconds());
    }
    return loads;
}

std::future<CompileResponse>
ShardedService::submit(CompileRequest request)
{
    CacheKey key{};
    const int shard = routingKey(request.source, request.pipeline, key)
                          ? router_.routeCompile(key)
                          : 0;
    return shards_[static_cast<std::size_t>(shard)]->submit(
        std::move(request));
}

std::future<RunResponse>
ShardedService::submitRun(RunRequest request)
{
    CacheKey key{};
    const int shard = routingKey(request.source, request.pipeline, key)
                          ? router_.routeRun(key, predictedLoads())
                          : 0;
    return shards_[static_cast<std::size_t>(shard)]->submitRun(
        std::move(request));
}

ServiceStats
ShardedService::stats() const
{
    ServiceStats merged;
    bool first = true;
    for (const std::unique_ptr<CompileService>& shard : shards_) {
        if (first) {
            merged = shard->stats();
            first = false;
        } else {
            merged.merge(shard->stats());
        }
    }
    return merged;
}

ServiceStats
ShardedService::shardStats(int shard) const
{
    return shards_.at(static_cast<std::size_t>(shard))->stats();
}

int
ShardedService::numWorkers() const
{
    int workers = 0;
    for (const std::unique_ptr<CompileService>& shard : shards_) {
        workers += shard->numWorkers();
    }
    return workers;
}

void
ShardedService::drain()
{
    for (const std::unique_ptr<CompileService>& shard : shards_) {
        shard->drain();
    }
}

void
ShardedService::writeChromeTrace(std::ostream& out) const
{
    std::vector<const telemetry::TraceRecorder*> recorders;
    recorders.reserve(shards_.size());
    for (const std::unique_ptr<CompileService>& shard : shards_) {
        recorders.push_back(&shard->telemetry());
    }
    telemetry::writeChromeTraceMerged(out, recorders);
}

} // namespace chehab::service
