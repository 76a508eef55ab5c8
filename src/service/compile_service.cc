#include "service/compile_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "compiler/passes.h"
#include "support/error.h"
#include "support/stopwatch.h"

namespace chehab::service {

namespace {

/// Encryption-randomness seed for one solo run: any deterministic
/// function of the run identity works; mixing the key hash with a tag
/// keeps it disjoint from the seeds used elsewhere.
std::uint64_t
runSeed(const RunKey& key)
{
    return static_cast<std::uint64_t>(RunKeyHash{}(key)) ^
           0x52554e5345454421ULL; // "RUNSEED!"
}

std::chrono::nanoseconds
toWindow(double seconds)
{
    if (seconds <= 0.0) return std::chrono::nanoseconds{0};
    return std::chrono::nanoseconds{
        static_cast<std::int64_t>(seconds * 1e9)};
}

/// The rotation-key plan \p lane's run executes: the compiler's key
/// plan when the artifact carries one, otherwise the runtime's plan for
/// the lane's effective key budget.
compiler::RotationKeyPlan
lanePlan(const BatchLane& lane)
{
    if (lane.compiled->key_planned) return lane.compiled->key_plan;
    return compiler::effectiveKeyPlan(lane.compiled->program,
                                      lane.group_key.key_budget);
}

/// A one-lane row carrying \p lane alone (executeRow runs it over the
/// whole row, seeded from its own run key).
BatchPlanner::Group
soloRow(BatchLane lane)
{
    BatchPlanner::Group row;
    row.row_slots = lane.request.params.n / 2;
    row.total_lanes = 1;
    row.predicted_sum = lane.predicted;
    BatchPlanner::GroupMember member;
    member.compile = lane.group_key.compile;
    member.compiled = lane.compiled;
    member.plan = lanePlan(lane);
    member.lanes.push_back(std::move(lane));
    row.members.push_back(std::move(member));
    return row;
}

} // namespace

const char*
optModeName(OptMode mode)
{
    switch (mode) {
    case OptMode::NoOpt: return "noopt";
    case OptMode::Greedy: return "greedy";
    case OptMode::Rl: return "rl";
    }
    return "?";
}

compiler::DriverConfig
makePipeline(OptMode mode, const ir::CostWeights& weights, int max_steps)
{
    switch (mode) {
    case OptMode::NoOpt: return compiler::DriverConfig::noOpt();
    case OptMode::Greedy:
        return compiler::DriverConfig::greedy(weights, max_steps);
    case OptMode::Rl: return compiler::DriverConfig::rl();
    }
    return compiler::DriverConfig::greedy(weights, max_steps);
}

std::string
ServiceConfig::validate() const
{
    if (num_workers < 1) {
        return "num_workers must be >= 1 (got " +
               std::to_string(num_workers) + ")";
    }
    if (max_lanes < 0) {
        return "max_lanes must be >= 0 (0 = row capacity, 1 = no "
               "coalescing; got " +
               std::to_string(max_lanes) + ")";
    }
    if (!std::isfinite(batch_window_seconds) ||
        batch_window_seconds < 0.0) {
        return "batch_window_seconds must be finite and >= 0 (got " +
               std::to_string(batch_window_seconds) + ")";
    }
    if (shards < 1) {
        return "shards must be >= 1 (got " + std::to_string(shards) + ")";
    }
    if (shard_id < 0 || shard_id >= shards) {
        return "shard_id must be in [0, shards) (got " +
               std::to_string(shard_id) + " with " +
               std::to_string(shards) + " shards)";
    }
    return {};
}

namespace {

/// Gate for the constructor's init list: members are built straight
/// from the config, so a nonsense value must throw before any of them
/// (a NaN batch window would otherwise hit undefined casts in
/// toWindow, a zero worker count would wedge the pool).
ServiceConfig
validated(ServiceConfig config)
{
    const std::string problem = config.validate();
    if (!problem.empty()) {
        throw std::invalid_argument("ServiceConfig: " + problem);
    }
    return config;
}

} // namespace

CompileService::CompileService(ServiceConfig config)
    : config_(validated(config)), ruleset_(trs::buildChehabRuleset()),
      cache_(config.kernel_cache_capacity),
      run_cache_(config.run_cache_capacity),
      telemetry_(config.telemetry),
      planner_(toWindow(config.batch_window_seconds)),
      pool_(std::make_unique<ThreadPool>(config.num_workers, &telemetry_))
{
    // Chrome traces group this shard's tracks under pid = shard_id + 1
    // ("shard N"); the default (shard 0 -> pid 1) matches what the
    // exporter always emitted, so unsharded traces are unchanged.
    telemetry_.setTrackGroup(config_.shard_id + 1);
    if (!config_.cache_dir.empty()) {
        // An unusable directory fails construction loudly, in the same
        // spirit as validate() — only runtime file corruption is
        // handled silently (skip + count).
        try {
            persist_ =
                std::make_unique<PersistStore>(config_.cache_dir,
                                               config_.shard_id);
        } catch (const std::runtime_error& error) {
            throw std::invalid_argument(std::string("ServiceConfig: ") +
                                        error.what());
        }
        // Warm scheduling priors: measured EWMA profiles from the
        // previous incarnation of this shard, if a usable snapshot
        // exists.
        persist_->loadLoadModelInto(load_model_);
    }
    if (config_.max_lanes != 1) {
        flusher_ = std::thread([this] { flusherLoop(); });
    }
}

CompileService::~CompileService()
{
    if (flusher_.joinable()) {
        {
            std::unique_lock<std::mutex> lock(batch_mutex_);
            batch_stop_ = true;
        }
        batch_cv_.notify_all();
        flusher_.join();
        // Flush whatever the window never reached so every outstanding
        // future resolves; the pool destructor (pool_ is declared last,
        // so it destructs first) drains these tasks before any other
        // member goes away.
        std::vector<BatchPlanner::Group> rest;
        {
            std::unique_lock<std::mutex> lock(batch_mutex_);
            rest = planner_.takeAll();
        }
        if (config_.cross_kernel) {
            rest = consolidateGroups(std::move(rest), consolidatePolicy());
        }
        for (BatchPlanner::Group& group : rest) {
            dispatchGroup(std::move(group), /*window_flush=*/true);
        }
    }
    if (persist_) {
        // Snapshot the load model once every in-flight observation has
        // landed (the pool still exists — pool_ is declared last, so
        // it destructs after this body runs).
        pool_->wait();
        persist_->storeLoadModel(load_model_);
    }
}

int
CompileService::numWorkers() const
{
    return pool_->size();
}

void
CompileService::drain()
{
    // The pool decrements its pending counter only after the task's
    // telemetry epilogue (the dispatch span), so an idle pool means
    // every span of every completed request has been recorded.
    pool_->wait();
}

ServiceStats
CompileService::stats() const
{
    // One consistent snapshot: stats_mutex_ is held across the whole
    // assembly, so the service counters are frozen while the cache /
    // load-model / pool / telemetry sub-stats are gathered. Deadlock-
    // free because every sub-stats call takes only its own leaf mutex
    // (single-flight map mutex, model mutex, pool mutex, recorder
    // shard mutexes) and none of those holders ever acquires
    // stats_mutex_ — writers that want it simply block until the
    // snapshot completes. The frozen counters plus the
    // read-after-freeze sub-stats are what makes every invariant in
    // checkStatsInvariants() hold for any snapshot, not just at
    // quiescence.
    ServiceStats snapshot;
    std::unique_lock<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
    snapshot.cache = cache_.stats();
    snapshot.run_cache = run_cache_.stats();
    snapshot.load_model = load_model_.snapshot();
    if (persist_) snapshot.persist = persist_->stats();
    snapshot.pool = pool_->stats();
    snapshot.telemetry = telemetry_.snapshot();
    {
        std::unique_lock<std::mutex> pools_lock(pools_mutex_);
        for (const auto& [key, pool] : pools_) {
            snapshot.runtimes_created +=
                static_cast<std::uint64_t>(pool->created());
            const fhe::PolyArena::Stats arena = pool->arenaStats();
            snapshot.arena_allocs += arena.allocs;
            snapshot.arena_reuses += arena.reuses;
            snapshot.arena_bytes += arena.bytes;
        }
    }
    return snapshot;
}

RuntimePool&
CompileService::poolFor(const fhe::SealLiteParams& params)
{
    const std::uint64_t key = paramsFingerprint(params);
    std::unique_lock<std::mutex> lock(pools_mutex_);
    std::unique_ptr<RuntimePool>& slot = pools_[key];
    if (!slot) slot = std::make_unique<RuntimePool>(params);
    return *slot;
}

CompileResponse
CompileService::makeResponse(const CompileRequest& request,
                             const CacheEntry::Settled& settled,
                             bool cache_hit, bool deduplicated,
                             double queue_seconds,
                             double estimated_cost,
                             double predicted_seconds) const
{
    CompileResponse response;
    response.name = request.name;
    response.cache_hit = cache_hit;
    response.deduplicated = deduplicated;
    response.queue_seconds = queue_seconds;
    response.compile_seconds = settled.seconds;
    response.estimated_cost = estimated_cost;
    response.predicted_seconds = predicted_seconds;
    response.worker_id = settled.worker_id;
    if (settled.state == CacheEntry::State::Ready) {
        response.ok = true;
        response.compiled = *settled.artifact;
    } else {
        response.ok = false;
        response.error = *settled.error;
    }
    return response;
}

CompileCache::Admission
CompileService::admitCompile(const ir::ExprPtr& canonical,
                             const compiler::DriverConfig& pipeline,
                             const CacheKey& key, double estimate,
                             double predicted, std::uint64_t request_id)
{
    CompileCache::Admission admission = cache_.acquire(key);
    if (!admission.owner) return admission;

    // This caller admitted the key: compile on the pool, longest
    // *predicted* wall time first (LPT order minimizes batch makespan,
    // and predicted seconds rank compile tasks against run tasks in
    // the shared queue). The worker compiles the canonical tree
    // computed by the caller: the driver's own canonicalize pass
    // becomes a cheap no-op and the cache key provably describes the
    // compiled source. Measured wall time feeds the load model so the
    // next compile of this key dispatches on truth, not estimate.
    std::shared_ptr<CacheEntry> entry = admission.entry;
    // This compile now counts toward the shard's predicted load until
    // its entry publishes (the router's run-routing signal; see
    // LoadModel::noteEnqueued).
    load_model_.noteEnqueued(predicted);
    pool_->submit(
        [this, entry, canonical, pipeline, key, estimate, predicted,
         request_id](int worker) {
            const std::int64_t span_start =
                telemetry_.enabled() ? telemetry_.nowNs() : 0;
            const Stopwatch compile_watch;
            if (persist_) {
                // Warm path: a previous process (or an evicted entry of
                // this one) already compiled this key — load the stored
                // artifact instead of recompiling. Bit-identical to a
                // fresh compile by the determinism contract
                // (compiler/serialize.h), so joiners cannot tell the
                // difference. The measured load time deliberately does
                // NOT feed observeCompile: the EWMA profile predicts
                // *compiles*, and a sub-millisecond load sample would
                // poison the next cold-prediction for this key.
                std::optional<compiler::Compiled> loaded =
                    persist_->loadArtifact(key);
                if (loaded) {
                    const double seconds = compile_watch.elapsedSeconds();
                    if (telemetry_.enabled()) {
                        telemetry_.instant("persist_hit", worker,
                                           request_id);
                        telemetry_.span("compile", worker, span_start,
                                        telemetry_.nowNs(), request_id,
                                        {{"est_cost", estimate},
                                         {"meas_s", seconds}});
                    }
                    // noteFinished strictly before publish, here and at
                    // every publish site: a client that has collected
                    // every response must observe a drained load signal
                    // (the quiescent inflight_jobs == 0 invariant).
                    load_model_.noteFinished(predicted);
                    entry->publishReady(std::move(*loaded), seconds,
                                        worker);
                    return;
                }
            }
            try {
                const compiler::CompilerDriver driver(&ruleset_,
                                                      config_.agent);
                compiler::Compiled compiled =
                    driver.compile(canonical, pipeline);
                const double seconds = compile_watch.elapsedSeconds();
                if (telemetry_.enabled()) {
                    telemetry_.span("compile", worker, span_start,
                                    telemetry_.nowNs(), request_id,
                                    {{"est_cost", estimate},
                                     {"meas_s", seconds}});
                    telemetry_.observe(telemetry::Phase::Compile, seconds);
                }
                load_model_.observeCompile(key, estimate, seconds);
                {
                    std::unique_lock<std::mutex> lock(stats_mutex_);
                    ++stats_.compiled;
                    stats_.total_compile_seconds += seconds;
                }
                // Store before publish (publish consumes the artifact):
                // the write is crash-safe and content-addressed, so a
                // failure here only costs the next process a recompile.
                if (persist_) persist_->storeArtifact(key, compiled);
                load_model_.noteFinished(predicted);
                entry->publishReady(std::move(compiled), seconds, worker);
            } catch (const std::exception& e) {
                telemetry_.instant("compile_failed", worker, request_id);
                {
                    std::unique_lock<std::mutex> lock(stats_mutex_);
                    ++stats_.failed;
                }
                load_model_.noteFinished(predicted);
                entry->publishFailure(e.what(), worker);
            }
        },
        predicted, ThreadPool::TaskTag{"dispatch", request_id, predicted});
    return admission;
}

std::future<CompileResponse>
CompileService::submit(CompileRequest request)
{
    auto promise = std::make_shared<std::promise<CompileResponse>>();
    std::future<CompileResponse> future = promise->get_future();
    {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        ++stats_.submitted;
    }

    const Stopwatch queue_watch;
    const bool traced = telemetry_.enabled();
    const std::uint64_t rid =
        traced ? next_request_id_.fetch_add(1) + 1 : 0;
    const int client_tid = telemetry::TraceRecorder::clientTid();
    const std::int64_t enqueue_start = traced ? telemetry_.nowNs() : 0;

    // Canonicalize on the caller: the cache key must identify the
    // *canonical* program so syntactic variants share one entry, and
    // the cost estimate prices what the optimizer will actually see.
    ir::ExprPtr canonical;
    try {
        if (!request.source) throw CompileError("null request source");
        canonical = compiler::canonicalize(request.source);
    } catch (const std::exception& e) {
        CompileResponse response;
        response.name = request.name;
        response.error = e.what();
        promise->set_value(std::move(response));
        return future;
    }

    const CacheKey key = makeCacheKey(canonical, request.pipeline);
    const double estimate = ir::cost(canonical, request.pipeline.weights);
    const double predicted =
        load_model_.predictCompileSeconds(key, estimate);

    CompileCache::Admission admission =
        admitCompile(canonical, request.pipeline, key, estimate, predicted,
                     rid);
    const bool cache_hit = !admission.owner && !admission.was_pending;
    const bool deduplicated = admission.was_pending;

    if (traced) {
        // The client-side admission span: canonicalize, key derivation,
        // cache acquire and (for owners) the pool dispatch.
        telemetry_.span("enqueue", client_tid, enqueue_start,
                        telemetry_.nowNs(), rid, {{"pred_s", predicted}});
        telemetry_.observe(telemetry::Phase::Enqueue,
                           queue_watch.elapsedSeconds());
        if (cache_hit) {
            telemetry_.instant("compile_cache_hit", client_tid, rid);
        }
    }

    // Hit, join, or owner alike: resolve the future when the entry
    // settles. Runs inline for an already-settled entry, otherwise on
    // the publishing worker — never blocks a pool thread.
    admission.entry->onSettled(
        [this, promise, request = std::move(request), cache_hit,
         deduplicated, queue_watch, estimate,
         predicted](const CacheEntry::Settled& settled) {
            promise->set_value(makeResponse(request, settled, cache_hit,
                                            deduplicated,
                                            queue_watch.elapsedSeconds(),
                                            estimate, predicted));
        });
    return future;
}

bool
CompileService::tryCoalesce(BatchLane& lane)
{
    if (config_.max_lanes == 1) return false;
    const int row_slots = lane.request.params.n / 2;
    if (row_slots <= 0) return false;

    const BatchGroupKey& fit_key = lane.group_key;
    const int lanes_cap = config_.max_lanes > 1 ? config_.max_lanes : 0;

    std::optional<BatchPlanner::Group> full;
    {
        std::unique_lock<std::mutex> lock(batch_mutex_);
        if (batch_stop_) return false; // Shutting down: run solo.
        auto it = fit_cache_.find(fit_key);
        const bool memo_hit = it != fit_cache_.end();
        if (!memo_hit) {
            // Analyze the exact rotation sequences this run will
            // execute (the plan its row runs under). Memoized per
            // group identity.
            GroupFit entry;
            entry.plan = lanePlan(lane);
            entry.fit = analyzeLaneFit(lane.compiled->program, entry.plan,
                                       row_slots);
            // Crude bound so a churn of distinct kernels cannot grow
            // the memo without limit; recomputation is cheap.
            if (fit_cache_.size() >= 4096) fit_cache_.clear();
            it = fit_cache_.emplace(fit_key, std::move(entry)).first;
        }
        {
            std::unique_lock<std::mutex> stats_lock(stats_mutex_);
            if (memo_hit) {
                ++stats_.fit_memo_hits;
            } else {
                ++stats_.fit_memo_misses;
            }
        }
        const GroupFit& group_fit = it->second;
        if (!group_fit.fit.safe) return false;
        int capacity = row_slots / group_fit.fit.stride;
        if (lanes_cap > 0) capacity = std::min(capacity, lanes_cap);
        if (capacity < 2) return false;
        BatchPlanner::MemberSpec member;
        member.compile = fit_key.compile;
        member.compiled = lane.compiled;
        member.plan = &group_fit.plan;
        member.min_stride = group_fit.fit.stride;
        if (telemetry_.enabled()) {
            // Stamp the coalescer arrival: dispatchGroup turns it into
            // the lane's window-wait measurement at flush time.
            lane.coalesce_ns = telemetry_.nowNs();
        }
        full = planner_.add(fit_key, member, std::move(lane), row_slots,
                            lanes_cap, BatchPlanner::Clock::now());
    }
    if (full) {
        dispatchGroup(std::move(*full), /*window_flush=*/false);
    } else {
        // The add may have created a new earliest deadline: wake the
        // flusher so it re-derives its wait_until target.
        batch_cv_.notify_one();
    }
    return true;
}

ConsolidatePolicy
CompileService::consolidatePolicy()
{
    ConsolidatePolicy policy;
    policy.parallelism = pool_->size();
    // The model never locks back into the service, so this callback is
    // safe under batch_mutex_.
    policy.shareable = [this](const BatchPlanner::Group& group) {
        return load_model_.preferRowShare(group.key.params_hash,
                                          group.predicted_sum);
    };
    return policy;
}

void
CompileService::flusherLoop()
{
    std::unique_lock<std::mutex> lock(batch_mutex_);
    while (!batch_stop_) {
        // Re-derive the wait target on every pass: every add notifies
        // batch_cv_, and a group opened since this thread last slept
        // may be the new earliest deadline.
        const std::optional<BatchPlanner::Clock::time_point> deadline =
            planner_.earliestDeadline();
        if (!deadline) {
            batch_cv_.wait(lock, [this] {
                return batch_stop_ || planner_.pendingLanes() > 0;
            });
            continue;
        }
        batch_cv_.wait_until(lock, *deadline);
        std::vector<BatchPlanner::Group> due =
            planner_.takeDue(BatchPlanner::Clock::now());
        if (due.empty()) continue;
        // Window-expired partial groups are where cross-kernel packing
        // pays: consolidate compatible ones into shared rows and offer
        // still-pending row-mates a seat (mates that do not fit keep
        // their window) before dispatching. Full groups never reach
        // this path — they dispatched at capacity, already perfectly
        // packed.
        if (config_.cross_kernel) {
            const std::size_t before = due.size();
            due = planner_.consolidateDue(std::move(due),
                                          consolidatePolicy());
            if (telemetry_.enabled() && due.size() != before) {
                telemetry_.instant(
                    "consolidate", telemetry::TraceRecorder::kFlusherTid,
                    0,
                    {{"groups_in", static_cast<double>(before)},
                     {"groups_out", static_cast<double>(due.size())}});
            }
        }
        lock.unlock();
        for (BatchPlanner::Group& group : due) {
            dispatchGroup(std::move(group), /*window_flush=*/true);
        }
        lock.lock();
    }
}

void
CompileService::dispatchGroup(BatchPlanner::Group group, bool window_flush)
{
    {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        if (window_flush) {
            ++stats_.window_flushes;
        } else {
            ++stats_.full_flushes;
        }
    }
    if (telemetry_.enabled()) {
        // Close every lane's coalescer wait: arrival stamp -> this
        // flush. Measured here (not at execution) so the wait excludes
        // the pool queue — that part is the dispatch span's qwait.
        const std::int64_t now = telemetry_.nowNs();
        for (BatchPlanner::GroupMember& member : group.members) {
            for (BatchLane& lane : member.lanes) {
                if (lane.coalesce_ns <= 0) continue;
                lane.window_wait_seconds =
                    static_cast<double>(now - lane.coalesce_ns) / 1e9;
                telemetry_.observe(telemetry::Phase::WindowWait,
                                   lane.window_wait_seconds);
            }
        }
        // Full flushes happen on the arriving client's thread,
        // window flushes on the flusher (or the destructor's drain).
        telemetry_.instant(
            window_flush ? "window_flush" : "full_flush",
            window_flush ? telemetry::TraceRecorder::kFlusherTid
                         : telemetry::TraceRecorder::clientTid(),
            group.members.front().lanes.front().request_id,
            {{"lanes", static_cast<double>(group.total_lanes)},
             {"members", static_cast<double>(group.members.size())}});
    }
    // A group the window closed before any peer arrived is a one-lane
    // row: executeRow runs it exactly as the solo request.
    submitRow(std::move(group));
}

void
CompileService::submitRow(BatchPlanner::Group row)
{
    // LPT on the row's predicted seconds (one program execution per
    // member), in the same unit compile tasks are ranked by.
    const double priority = row.predicted_sum;
    const std::uint64_t rid = row.members.front().lanes.front().request_id;
    auto shared = std::make_shared<BatchPlanner::Group>(std::move(row));
    pool_->submit(
        [this, shared](int worker) { executeRow(*shared, worker); },
        priority, ThreadPool::TaskTag{"dispatch", rid, priority});
}

void
CompileService::recordExecutePhases(int worker, std::int64_t start_ns,
                                    std::uint64_t request_id,
                                    const compiler::RunResult& result,
                                    double seconds, int lanes)
{
    if (!telemetry_.enabled()) return;
    const std::int64_t end_ns =
        start_ns + static_cast<std::int64_t>(seconds * 1e9);
    telemetry_.span("execute", worker, start_ns, end_ns, request_id,
                    {{"lanes", static_cast<double>(lanes)},
                     {"meas_s", seconds}});
    // The sub-phases ran back to back inside the execution; rebuild
    // their bounds from the measured split (clamped so FP rounding
    // never pushes a child past its parent).
    const auto offset = [&](double s) {
        return std::min(end_ns,
                        start_ns + static_cast<std::int64_t>(s * 1e9));
    };
    const std::int64_t setup_end = offset(result.setup_seconds);
    const std::int64_t eval_end =
        offset(result.setup_seconds + result.exec_seconds);
    const std::int64_t decode_end =
        offset(result.setup_seconds + result.exec_seconds +
               result.decode_seconds);
    telemetry_.span("setup", worker, start_ns, setup_end, request_id);
    telemetry_.span("evaluate", worker, setup_end, eval_end, request_id);
    telemetry_.span("decode", worker, eval_end, decode_end, request_id);
    telemetry_.observe(telemetry::Phase::Execute, seconds);
    telemetry_.observe(telemetry::Phase::Setup, result.setup_seconds);
    telemetry_.observe(telemetry::Phase::Evaluate, result.exec_seconds);
    telemetry_.observe(telemetry::Phase::Decode, result.decode_seconds);
}

std::shared_ptr<const CompositeProgram>
CompileService::compositeFor(const BatchPlanner::Group& group)
{
    const std::uint64_t fingerprint = compositeFingerprint(group);
    {
        std::unique_lock<std::mutex> lock(batch_mutex_);
        auto it = composite_cache_.find(fingerprint);
        if (it != composite_cache_.end()) {
            std::unique_lock<std::mutex> stats_lock(stats_mutex_);
            ++stats_.composite_cache_hits;
            return it->second;
        }
    }
    auto composite = std::make_shared<const CompositeProgram>(
        composeGroup(group));
    {
        std::unique_lock<std::mutex> lock(batch_mutex_);
        // Crude churn bound, mirroring the fit memo. A racing composer
        // may have published the same fingerprint meanwhile; both
        // values are identical by content-addressing, either wins.
        if (composite_cache_.size() >= 1024) composite_cache_.clear();
        composite_cache_.emplace(fingerprint, composite);
    }
    {
        std::unique_lock<std::mutex> stats_lock(stats_mutex_);
        ++stats_.composite_cache_misses;
    }
    return composite;
}

void
CompileService::executeRow(BatchPlanner::Group& row, int worker,
                           compiler::FheRuntime* runtime)
{
    // The row is executed exactly once, on this worker; every lane's
    // entry is published from here (success, fallback, or failure). A
    // lone lane runs exactly as its solo request: over the whole row,
    // reseeded from its own run key. A shared row is put in canonical
    // order and seeded from its lanes' identities.
    const bool solo = row.total_lanes == 1;
    std::uint64_t seed = 0;
    if (solo) {
        row.stride = row.row_slots;
        seed = runSeed(row.members.front().lanes.front().run_key);
    } else {
        seed = BatchPlanner::canonicalizeAndSeed(row);
    }
    // Canonical flat lane order, for exception-safe publication.
    std::vector<const BatchLane*> flat;
    flat.reserve(static_cast<std::size_t>(row.total_lanes));
    for (const BatchPlanner::GroupMember& member : row.members) {
        for (const BatchLane& lane : member.lanes) flat.push_back(&lane);
    }
    const auto envsOf = [](const BatchPlanner::GroupMember& member) {
        std::vector<const ir::Env*> envs;
        envs.reserve(member.lanes.size());
        for (const BatchLane& lane : member.lanes) {
            envs.push_back(&lane.request.inputs);
        }
        return envs;
    };
    std::size_t published = 0; ///< Lane entries settled so far.
    try {
        std::optional<RuntimePool::Lease> lease;
        if (runtime == nullptr) {
            lease.emplace(poolFor(flat.front()->request.params).acquire());
            runtime = &lease->runtime();
        }
        const std::int64_t span_start =
            telemetry_.enabled() ? telemetry_.nowNs() : 0;
        const Stopwatch exec_watch;
        // Bit-identical noise accounting on any pooled instance (see
        // runtime_pool.h).
        runtime->scheme().reseedRandomness(seed);

        // One kernel runs its own program (no copy); a mix of kernels
        // runs the composed concatenation. Both are one row.
        compiler::RowResult ran;
        if (row.members.size() == 1) {
            const BatchPlanner::GroupMember& member = row.members.front();
            const compiler::FheProgram& program = member.compiled->program;
            ran = runtime->execute(
                program, member.plan,
                compiler::programRow(program, envsOf(member), row.stride));
        } else {
            std::shared_ptr<const CompositeProgram> composite =
                compositeFor(row);
            compiler::RowPlan layout = composite->row;
            for (std::size_t m = 0; m < row.members.size(); ++m) {
                layout.members[m].lanes = envsOf(row.members[m]);
            }
            ran = runtime->execute(composite->program, composite->plan,
                                   layout);
        }
        const compiler::RunResult& shared = ran.shared;

        const double seconds = exec_watch.elapsedSeconds();
        recordExecutePhases(worker, span_start, flat.front()->request_id,
                            shared, seconds, row.total_lanes);
        // For proportional measured-time attribution per member (each
        // member's program ran exactly once on this row); equal split
        // when every prediction is zero.
        double total_pred = 0.0;
        for (const BatchPlanner::GroupMember& member : row.members) {
            total_pred += member.lanes.front().predicted;
        }
        {
            std::unique_lock<std::mutex> lock(stats_mutex_);
            ++stats_.executed;
            if (solo) {
                ++stats_.solo_runs;
            } else {
                ++stats_.packed_groups;
                if (row.members.size() > 1) {
                    ++stats_.composite_groups;
                    stats_.composite_members += row.members.size();
                }
            }
            stats_.total_exec_seconds += seconds;
            stats_.mod_switch_drops +=
                static_cast<std::uint64_t>(shared.mod_switch_drops);
        }

        for (std::size_t m = 0; m < row.members.size(); ++m) {
            const BatchPlanner::GroupMember& member = row.members[m];
            const int budget = ran.member_final_budgets[m];
            if (!solo && budget <= 0) {
                // This member's noise headroom ran out on the shared
                // row (other lanes' messages fatten the multiply
                // noise): its packed outputs are no longer
                // trustworthy, so re-execute its lanes as solo rows on
                // this runtime — exactly as if they had never been
                // coalesced. Other members' outputs live in their own
                // ciphertexts and stand.
                telemetry_.instant(
                    "solo_fallback", worker,
                    member.lanes.front().request_id,
                    {{"lanes",
                      static_cast<double>(member.lanes.size())}});
                {
                    std::unique_lock<std::mutex> lock(stats_mutex_);
                    ++stats_.packed_fallbacks;
                }
                for (const BatchLane& lane : member.lanes) {
                    // A solo row settles its entry on success AND
                    // failure.
                    BatchPlanner::Group fallback = soloRow(lane);
                    executeRow(fallback, worker, runtime);
                    ++published;
                }
                continue;
            }
            // Feed the measured row time back, attributed to this
            // member's predicted share; fallback members are skipped —
            // their packed execution was discarded and their solo rows
            // just observed their true solo cost, so a diluted
            // packed-share sample would only bias the profile low for
            // exactly the groups that should read as expensive.
            {
                const BatchLane& first = member.lanes.front();
                const double share =
                    total_pred > 0.0
                        ? first.predicted / total_pred
                        : 1.0 / static_cast<double>(row.members.size());
                load_model_.observeRun(first.group_key, first.estimate,
                                       seconds * share,
                                       shared.setup_seconds * share);
            }
            // packed_lanes counts per publication (not the group size
            // up front) so a mid-loop throw leaves the counters
            // consistent with what was actually delivered.
            const compiler::FheProgram::Counts counts =
                member.compiled->program.counts();
            for (std::size_t l = 0; l < member.lanes.size(); ++l) {
                const BatchLane& lane = member.lanes[l];
                RunArtifact artifact;
                // The lane's own compile entry: a member may gather
                // lanes from distinct (content-equal) entries.
                artifact.compiled =
                    std::shared_ptr<const compiler::Compiled>(
                        lane.compile_entry, lane.compiled);
                artifact.compile_seconds = lane.compile_seconds;
                artifact.predicted_seconds = row.predicted_sum;
                artifact.window_wait_seconds = lane.window_wait_seconds;
                artifact.result = shared;
                artifact.result.counts = counts;
                artifact.result.final_noise_budget = budget;
                artifact.result.consumed_noise =
                    shared.fresh_noise_budget - budget;
                artifact.result.output =
                    std::move(ran.member_outputs[m][l]);
                artifact.packed_lanes = row.total_lanes;
                artifact.lane = member.lane_base + static_cast<int>(l);
                if (!solo) {
                    std::unique_lock<std::mutex> lock(stats_mutex_);
                    ++stats_.packed_lanes;
                }
                load_model_.noteFinished(lane.predicted);
                lane.entry->publishReady(std::move(artifact), seconds,
                                         worker);
                ++published;
            }
        }
    } catch (const std::exception& e) {
        // A solo lane that failed on its runtime marks the trace.
        if (solo && runtime != nullptr) {
            telemetry_.instant("run_failed", worker,
                               flat.front()->request_id);
        }
        // Fail only the lanes not yet published: an already-settled
        // entry must never be published twice.
        {
            std::unique_lock<std::mutex> lock(stats_mutex_);
            stats_.run_failed +=
                static_cast<std::uint64_t>(flat.size() - published);
        }
        for (std::size_t l = published; l < flat.size(); ++l) {
            load_model_.noteFinished(flat[l]->predicted);
            flat[l]->entry->publishFailure(e.what(), worker);
        }
    }
}

std::future<RunResponse>
CompileService::submitRun(RunRequest request)
{
    auto promise = std::make_shared<std::promise<RunResponse>>();
    std::future<RunResponse> future = promise->get_future();
    // Parameters no runtime can be built from are rejected before the
    // request is accepted, so poolFor never sees them.
    if (std::string problem = request.params.validate(); !problem.empty()) {
        RunResponse response;
        response.name = request.name;
        response.error = "SealLiteParams: " + problem;
        promise->set_value(std::move(response));
        return future;
    }
    {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        ++stats_.run_submitted;
    }

    const Stopwatch queue_watch;
    const bool traced = telemetry_.enabled();
    const std::uint64_t rid =
        traced ? next_request_id_.fetch_add(1) + 1 : 0;
    const int client_tid = telemetry::TraceRecorder::clientTid();
    const std::int64_t enqueue_start = traced ? telemetry_.nowNs() : 0;

    ir::ExprPtr canonical;
    try {
        if (!request.source) throw CompileError("null request source");
        canonical = compiler::canonicalize(request.source);
    } catch (const std::exception& e) {
        RunResponse response;
        response.name = request.name;
        response.error = e.what();
        promise->set_value(std::move(response));
        return future;
    }

    const CacheKey compile_key = makeCacheKey(canonical, request.pipeline);
    const double estimate = ir::cost(canonical, request.pipeline.weights);

    const RunKey run_key = makeRunKey(canonical, request);
    RunCache::Admission run_admission = run_cache_.acquire(run_key);
    const bool run_hit =
        !run_admission.owner && !run_admission.was_pending;
    const bool run_dedup = run_admission.was_pending;
    const std::string name = request.name;

    // Only the run owner touches the kernel cache: a request served
    // from the run cache definitionally reused the compile stage too
    // (the artifact is embedded in the run entry), so its compile
    // provenance mirrors the run provenance — and admitting the
    // compile key anyway could schedule a recompile nothing consumes
    // when the compile entry was LRU-evicted after the run settled.
    bool compile_hit = run_hit;
    bool compile_dedup = run_dedup;

    if (run_admission.owner) {
        // Run requests and plain compile requests share the kernel
        // cache: a run of a kernel someone already compiled reuses
        // that artifact, and vice versa.
        CompileCache::Admission compile_admission = admitCompile(
            canonical, request.pipeline, compile_key, estimate,
            load_model_.predictCompileSeconds(compile_key, estimate), rid);
        compile_hit =
            !compile_admission.owner && !compile_admission.was_pending;
        compile_dedup = compile_admission.was_pending;

        // Single-flight execute: chain onto the compile entry. The
        // continuation hands the job to the slot-batching coalescer
        // (lane-safe kernels wait up to the batch window for peers to
        // share a ciphertext row with) or enqueues a solo execution —
        // it never runs the kernel inline on the publishing worker.
        std::shared_ptr<RunEntry> run_entry = run_admission.entry;
        std::shared_ptr<CacheEntry> compile_entry = compile_admission.entry;
        RunRequest job = std::move(request);
        compile_admission.entry->onSettled(
            [this, run_entry, compile_entry, job = std::move(job), run_key,
             compile_key, estimate,
             rid](const CacheEntry::Settled& settled) {
                if (settled.state != CacheEntry::State::Ready) {
                    {
                        std::unique_lock<std::mutex> lock(stats_mutex_);
                        ++stats_.run_failed;
                    }
                    run_entry->publishFailure(*settled.error,
                                              settled.worker_id);
                    return;
                }
                // The artifact pointer stays valid because the lane
                // holds the compile entry alive via shared_ptr.
                BatchLane lane;
                lane.entry = run_entry;
                lane.compile_entry = compile_entry;
                lane.compiled = settled.artifact;
                lane.compile_seconds = settled.seconds;
                lane.request = job;
                lane.run_key = run_key;
                // Group identity (artifact x params x effective
                // budget): the load model's run-profile key and, when
                // coalescible, the planner's group key.
                lane.group_key.compile = compile_key;
                lane.group_key.params_hash =
                    paramsFingerprint(lane.request.params);
                lane.group_key.key_budget =
                    settled.artifact->key_planned
                        ? 0
                        : lane.request.key_budget;
                lane.estimate = estimate;
                lane.predicted = load_model_.predictRunSeconds(
                    lane.group_key, estimate);
                lane.request_id = rid;
                // The lane counts toward the shard's predicted load
                // from admission to publication; every publication
                // path (solo, packed, fallback, failure) pairs this
                // with noteFinished(lane.predicted).
                load_model_.noteEnqueued(lane.predicted);
                if (!tryCoalesce(lane)) submitRow(soloRow(std::move(lane)));
            });
    }

    if (traced) {
        // The client-side admission span: canonicalize, both cache
        // acquires and (for owners) the compile dispatch / chaining.
        telemetry_.span("enqueue", client_tid, enqueue_start,
                        telemetry_.nowNs(), rid,
                        {{"est_cost", estimate}});
        telemetry_.observe(telemetry::Phase::Enqueue,
                           queue_watch.elapsedSeconds());
        if (run_hit) {
            telemetry_.instant("run_cache_hit", client_tid, rid);
        } else if (run_admission.owner && compile_hit) {
            telemetry_.instant("compile_cache_hit", client_tid, rid);
        }
    }

    run_admission.entry->onSettled(
        [promise, name, compile_hit, compile_dedup, run_hit,
         run_dedup, queue_watch,
         estimate](const RunEntry::Settled& settled) {
            RunResponse response;
            response.name = name;
            response.compile_cache_hit = compile_hit;
            response.compile_deduplicated = compile_dedup;
            response.run_cache_hit = run_hit;
            response.run_deduplicated = run_dedup;
            response.queue_seconds = queue_watch.elapsedSeconds();
            response.exec_seconds = settled.seconds;
            response.estimated_cost = estimate;
            response.worker_id = settled.worker_id;
            if (settled.state == RunEntry::State::Ready) {
                response.ok = true;
                response.compiled = *settled.artifact->compiled;
                response.result = settled.artifact->result;
                response.compile_seconds =
                    settled.artifact->compile_seconds;
                response.predicted_seconds =
                    settled.artifact->predicted_seconds;
                response.window_wait_seconds =
                    settled.artifact->window_wait_seconds;
                response.packed_lanes = settled.artifact->packed_lanes;
                response.lane = settled.artifact->lane;
            } else {
                response.ok = false;
                response.error = *settled.error;
            }
            promise->set_value(std::move(response));
        });
    return future;
}

} // namespace chehab::service
