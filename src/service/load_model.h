/// \file
/// Timer-augmented load model: the one scheduling layer behind dispatch
/// and consolidation.
///
/// A *static* a-priori estimate (ir::cost() for dispatch, the certified
/// stride for row packing) is blind to uneven per-task cost, and once
/// cost is uneven, measured-runtime feedback beats any static cost
/// function (cf. the timer-augmented DSMC load-balancing literature in
/// PAPERS.md). So the LoadModel keeps online EWMA profiles of
/// *measured* compile and run wall times, keyed by the same
/// content-addressed fingerprints the caches use:
///
///   - Compile profiles (per CacheKey): EWMA of the owner compile's
///     wall seconds. Cold start falls back to the static ir::cost()
///     estimate scaled by a globally calibrated seconds-per-cost-unit
///     ratio, so cold predictions keep the static ordering while warm
///     ones are measured truth.
///   - Run profiles (per BatchGroupKey = artifact x params x effective
///     key budget): EWMA of one full execution's wall seconds (setup +
///     evaluation), plus the setup share (key generation, packing,
///     encryption — RunResult::setup_seconds) that row sharing
///     amortizes. The cheapest observed execution per parameter family
///     doubles as the row-overhead floor consolidation prices merges
///     against.
///
/// The two consumers:
///   1. Dispatch — the thread pool runs one two-level priority queue:
///      compile tasks and run tasks are both ranked by *predicted
///      seconds* (longest-processing-time first), so a heavy compile
///      outranks a light run and vice versa — the units are finally
///      comparable.
///   2. Consolidation — cost-driven row assignment minimizes the
///      predicted composite makespan and wasted lanes (see
///      consolidateGroups), and execution-dominated groups keep their
///      own rows while workers are idle (preferRowShare).
///
/// Batch windows are not the model's business: a pending group flushes
/// at capacity or at first arrival + ServiceConfig's
/// batch_window_seconds, whichever comes first.
///
/// The model never changes outputs: packed/composite/solo results stay
/// bit-identical at any worker count — it only reorders and regroups
/// work (see README, "Adaptive scheduling").
///
/// Thread-safety: every member function may be called concurrently
/// from any thread; all state lives behind one internal mutex and the
/// counters are TSan-clean. The model never calls back into the
/// service, so it can be queried under the service's coalescer lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/batch_planner.h"
#include "service/cache_key.h"

namespace chehab::service {

/// \name Model constants (defined in load_model.cc)
/// @{
/// EWMA smoothing for measured compile/run seconds: profile ewma =
/// alpha * sample + (1 - alpha) * ewma.
extern const double kLoadModelAlpha;
/// Consolidation prices a merge against the cheapest measured
/// execution of the row's parameter family (≈ one row's fixed
/// overhead: lease + keygen + encrypt/decrypt). A group predicted to
/// cost more than this factor times that floor is execution-dominated:
/// sharing a row would serialize real work, so it prefers its own row
/// while idle workers remain.
extern const double kLoadModelMergeCostFactor;
/// Seconds-per-static-cost-unit ratio used before any observation
/// calibrates the global ratios.
extern const double kLoadModelSeedSecondsPerCost;
/// Bound on each profile map (cleared when exceeded, mirroring the
/// service's fit memo; imports stop at it).
extern const std::size_t kLoadModelMaxProfiles;
/// @}

/// Monotonic counters describing the model's activity; snapshot via
/// LoadModel::snapshot() (also embedded in ServiceStats::load_model).
struct LoadModelSnapshot
{
    std::uint64_t compile_profiles = 0; ///< Distinct compile keys seen.
    std::uint64_t run_profiles = 0;     ///< Distinct run group keys seen.
    std::uint64_t compile_observations = 0;
    std::uint64_t run_observations = 0;
    /// Predictions served from a measured EWMA profile vs. from the
    /// static-estimate cold-start fallback.
    std::uint64_t warm_predictions = 0;
    std::uint64_t cold_predictions = 0;
    /// Consolidation share queries answered "share a row" vs. "prefer
    /// an own row" (execution-dominated groups).
    std::uint64_t share_preferred = 0;
    std::uint64_t solo_preferred = 0;
    /// \name Per-shard load signal (instantaneous, not monotonic)
    /// Jobs currently admitted but not yet published (queued in the
    /// coalescer or pool, or mid-execution) and the sum of their
    /// predicted seconds — the shard load the router balances run
    /// traffic on. Both drain to exactly zero at quiescence.
    /// @{
    std::uint64_t inflight_jobs = 0;
    double inflight_predicted_seconds = 0.0;
    /// @}
};

/// One EWMA profile in snapshot form (see LoadModelState).
struct ProfileState
{
    double seconds_ewma = 0.0;
    double setup_ewma = 0.0;
    std::uint64_t samples = 0;
};

/// The persistable slice of a LoadModel: measured compile/run profiles,
/// the per-parameter-family execution floors and the globally
/// calibrated seconds-per-cost ratios. Exported at shutdown and
/// re-imported as priors at boot (service/persist.{h,cc}), so a warm
/// restart schedules with measured truth from the first request.
struct LoadModelState
{
    std::vector<std::pair<CacheKey, ProfileState>> compile;
    std::vector<std::pair<BatchGroupKey, ProfileState>> run;
    std::vector<std::pair<std::uint64_t, double>> cheapest_run;
    double compile_ratio = 0.0;
    std::uint64_t compile_ratio_samples = 0;
    double run_ratio = 0.0;
    std::uint64_t run_ratio_samples = 0;
};

class LoadModel
{
  public:
    LoadModel();

    /// \name Timer-augmented cost predictions (seconds)
    /// Warm: the key's EWMA of measured wall seconds. Cold: the static
    /// cost estimate scaled by the globally calibrated ratio — ordering
    /// degrades gracefully to static LPT.
    /// @{
    double predictCompileSeconds(const CacheKey& key,
                                 double static_cost) const;
    double predictRunSeconds(const BatchGroupKey& key,
                             double static_cost) const;
    /// @}

    /// \name Measured-timing feedback
    /// @{
    void observeCompile(const CacheKey& key, double static_cost,
                        double measured_seconds);
    /// \p setup_seconds is the execution's client-side share (keygen,
    /// packing, encryption — RunResult::setup_seconds), the part row
    /// sharing amortizes.
    void observeRun(const BatchGroupKey& key, double static_cost,
                    double measured_seconds, double setup_seconds);
    /// @}

    /// \name Per-shard load signal
    /// The service calls noteEnqueued(predicted) when it admits a unit
    /// of owner work (a compile task or a run lane) and
    /// noteFinished(the same predicted value) when that unit publishes
    /// — success or failure — so inflightPredictedSeconds() is at all
    /// times the predicted seconds of queued + in-flight work on this
    /// shard. The ShardRouter (service/shard_router.h) routes run
    /// traffic to the least-loaded feasible shard on this signal.
    /// Enqueue/finish pairs carry the same value, so the sum returns to
    /// exactly zero when the shard drains.
    /// @{
    void noteEnqueued(double predicted_seconds);
    void noteFinished(double predicted_seconds);
    double inflightPredictedSeconds() const;
    /// @}

    /// Consolidation advice: true when a group predicted to cost
    /// \p predicted_seconds on the \p params_hash parameter family is
    /// overhead-dominated and should share a row whenever one fits;
    /// false when it is execution-dominated and deserves its own row
    /// while idle workers remain. Always true while the model is cold
    /// (no measured floor yet).
    bool preferRowShare(std::uint64_t params_hash,
                        double predicted_seconds) const;

    LoadModelSnapshot snapshot() const;

    /// \name Persistable state (warm restarts)
    /// exportState returns the measured profiles and calibration ratios
    /// in a deterministic order (sorted by key, so equal models export
    /// equal snapshots); importState seeds them back as boot-time
    /// priors. Import replaces any same-key profile and both global
    /// ratios (it is meant for a freshly constructed model), leaves the
    /// in-flight signal untouched, and respects kLoadModelMaxProfiles.
    /// Counters (compile_profiles, run_profiles) reflect imported
    /// entries, so a warm boot is visible in snapshot().
    /// @{
    LoadModelState exportState() const;
    void importState(const LoadModelState& state);
    /// @}

  private:
    struct Profile
    {
        double seconds_ewma = 0.0;
        double setup_ewma = 0.0;
        std::uint64_t samples = 0;
    };

    /// EWMA update helper: first sample seeds the average.
    static double ewma(double current, double sample,
                       std::uint64_t samples_before);

    mutable std::mutex mutex_;
    std::unordered_map<CacheKey, Profile, CacheKeyHash> compile_;
    std::unordered_map<BatchGroupKey, Profile, BatchGroupKeyHash> run_;
    /// Cheapest measured full execution per parameter family: the
    /// row-overhead floor consolidation prices merges against.
    std::unordered_map<std::uint64_t, double> cheapest_run_;
    /// Globally calibrated seconds-per-static-cost-unit ratios (EWMA
    /// over measured/static), one per task class so compile and run
    /// predictions land in comparable units even when cold.
    double compile_ratio_;
    std::uint64_t compile_ratio_samples_ = 0;
    double run_ratio_;
    std::uint64_t run_ratio_samples_ = 0;
    /// Queued + in-flight load signal (see noteEnqueued): the job
    /// count and the sum of their predicted seconds.
    std::uint64_t inflight_jobs_ = 0;
    double inflight_predicted_ = 0.0;
    mutable LoadModelSnapshot counters_;
};

} // namespace chehab::service
