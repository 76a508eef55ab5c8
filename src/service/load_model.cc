#include "service/load_model.h"

#include <algorithm>
#include <tuple>

namespace chehab::service {

const double kLoadModelAlpha = 0.3;
const double kLoadModelMergeCostFactor = 4.0;
const double kLoadModelSeedSecondsPerCost = 1e-6;
const std::size_t kLoadModelMaxProfiles = 65536;

LoadModel::LoadModel()
    : compile_ratio_(kLoadModelSeedSecondsPerCost),
      run_ratio_(kLoadModelSeedSecondsPerCost)
{}

double
LoadModel::ewma(double current, double sample,
                std::uint64_t samples_before)
{
    if (samples_before == 0) return sample;
    return kLoadModelAlpha * sample + (1.0 - kLoadModelAlpha) * current;
}

double
LoadModel::predictCompileSeconds(const CacheKey& key,
                                 double static_cost) const
{
    const double floor_cost = std::max(static_cost, 1.0);
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = compile_.find(key);
    if (it != compile_.end() && it->second.samples > 0) {
        ++counters_.warm_predictions;
        return it->second.seconds_ewma;
    }
    ++counters_.cold_predictions;
    return floor_cost * compile_ratio_;
}

double
LoadModel::predictRunSeconds(const BatchGroupKey& key,
                             double static_cost) const
{
    const double floor_cost = std::max(static_cost, 1.0);
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = run_.find(key);
    if (it != run_.end() && it->second.samples > 0) {
        ++counters_.warm_predictions;
        return it->second.seconds_ewma;
    }
    ++counters_.cold_predictions;
    return floor_cost * run_ratio_;
}

void
LoadModel::observeCompile(const CacheKey& key, double static_cost,
                          double measured_seconds)
{
    if (measured_seconds < 0.0) return; // Clock hiccup: ignore.
    std::unique_lock<std::mutex> lock(mutex_);
    ++counters_.compile_observations;
    if (compile_.size() >= kLoadModelMaxProfiles) compile_.clear();
    Profile& profile = compile_[key];
    profile.seconds_ewma =
        ewma(profile.seconds_ewma, measured_seconds, profile.samples);
    ++profile.samples;
    const double ratio = measured_seconds / std::max(static_cost, 1.0);
    compile_ratio_ = ewma(compile_ratio_, ratio, compile_ratio_samples_);
    ++compile_ratio_samples_;
}

void
LoadModel::observeRun(const BatchGroupKey& key, double static_cost,
                      double measured_seconds, double setup_seconds)
{
    if (measured_seconds < 0.0) return;
    std::unique_lock<std::mutex> lock(mutex_);
    ++counters_.run_observations;
    if (run_.size() >= kLoadModelMaxProfiles) {
        run_.clear();
        cheapest_run_.clear();
    }
    Profile& profile = run_[key];
    profile.seconds_ewma =
        ewma(profile.seconds_ewma, measured_seconds, profile.samples);
    profile.setup_ewma = ewma(profile.setup_ewma,
                              std::max(setup_seconds, 0.0), profile.samples);
    ++profile.samples;
    const double ratio = measured_seconds / std::max(static_cost, 1.0);
    run_ratio_ = ewma(run_ratio_, ratio, run_ratio_samples_);
    ++run_ratio_samples_;
    auto [floor_it, inserted] =
        cheapest_run_.emplace(key.params_hash, measured_seconds);
    if (!inserted && measured_seconds < floor_it->second) {
        floor_it->second = measured_seconds;
    }
}

void
LoadModel::noteEnqueued(double predicted_seconds)
{
    std::unique_lock<std::mutex> lock(mutex_);
    ++inflight_jobs_;
    inflight_predicted_ += std::max(predicted_seconds, 0.0);
}

void
LoadModel::noteFinished(double predicted_seconds)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (inflight_jobs_ > 0) --inflight_jobs_;
    inflight_predicted_ -= std::max(predicted_seconds, 0.0);
    // Enqueue/finish pairs carry identical values, so the sum is zero
    // whenever the count is — pin it there so floating-point rounding
    // can never accumulate into a phantom load (or a negative one).
    if (inflight_jobs_ == 0 || inflight_predicted_ < 0.0) {
        inflight_predicted_ = 0.0;
    }
}

double
LoadModel::inflightPredictedSeconds() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return inflight_predicted_;
}

bool
LoadModel::preferRowShare(std::uint64_t params_hash,
                          double predicted_seconds) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = cheapest_run_.find(params_hash);
    if (it != cheapest_run_.end() &&
        predicted_seconds > kLoadModelMergeCostFactor * it->second) {
        ++counters_.solo_preferred;
        return false;
    }
    ++counters_.share_preferred;
    return true;
}

LoadModelState
LoadModel::exportState() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    LoadModelState state;
    state.compile.reserve(compile_.size());
    for (const auto& [key, profile] : compile_) {
        state.compile.emplace_back(
            key, ProfileState{profile.seconds_ewma, profile.setup_ewma,
                              profile.samples});
    }
    state.run.reserve(run_.size());
    for (const auto& [key, profile] : run_) {
        state.run.emplace_back(
            key, ProfileState{profile.seconds_ewma, profile.setup_ewma,
                              profile.samples});
    }
    state.cheapest_run.assign(cheapest_run_.begin(), cheapest_run_.end());
    state.compile_ratio = compile_ratio_;
    state.compile_ratio_samples = compile_ratio_samples_;
    state.run_ratio = run_ratio_;
    state.run_ratio_samples = run_ratio_samples_;
    lock.unlock();

    // Deterministic export order: the maps are unordered, and equal
    // models must serialize to equal snapshot bytes.
    std::sort(state.compile.begin(), state.compile.end(),
              [](const auto& a, const auto& b) {
                  const CacheKey& ka = a.first;
                  const CacheKey& kb = b.first;
                  return std::tie(ka.source.hi, ka.source.lo, ka.pipeline) <
                         std::tie(kb.source.hi, kb.source.lo, kb.pipeline);
              });
    std::sort(state.run.begin(), state.run.end(),
              [](const auto& a, const auto& b) {
                  const BatchGroupKey& ka = a.first;
                  const BatchGroupKey& kb = b.first;
                  return std::tie(ka.compile.source.hi, ka.compile.source.lo,
                                  ka.compile.pipeline, ka.params_hash,
                                  ka.key_budget) <
                         std::tie(kb.compile.source.hi, kb.compile.source.lo,
                                  kb.compile.pipeline, kb.params_hash,
                                  kb.key_budget);
              });
    std::sort(state.cheapest_run.begin(), state.cheapest_run.end());
    return state;
}

void
LoadModel::importState(const LoadModelState& state)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (const auto& [key, profile] : state.compile) {
        if (compile_.size() >= kLoadModelMaxProfiles) break;
        Profile& slot = compile_[key];
        slot.seconds_ewma = profile.seconds_ewma;
        slot.setup_ewma = profile.setup_ewma;
        slot.samples = profile.samples;
    }
    for (const auto& [key, profile] : state.run) {
        if (run_.size() >= kLoadModelMaxProfiles) break;
        Profile& slot = run_[key];
        slot.seconds_ewma = profile.seconds_ewma;
        slot.setup_ewma = profile.setup_ewma;
        slot.samples = profile.samples;
    }
    for (const auto& [params_hash, floor] : state.cheapest_run) {
        if (cheapest_run_.size() >= kLoadModelMaxProfiles) break;
        auto [it, inserted] = cheapest_run_.emplace(params_hash, floor);
        if (!inserted && floor < it->second) it->second = floor;
    }
    if (state.compile_ratio_samples > 0 && state.compile_ratio > 0.0) {
        compile_ratio_ = state.compile_ratio;
        compile_ratio_samples_ = state.compile_ratio_samples;
    }
    if (state.run_ratio_samples > 0 && state.run_ratio > 0.0) {
        run_ratio_ = state.run_ratio;
        run_ratio_samples_ = state.run_ratio_samples;
    }
}

LoadModelSnapshot
LoadModel::snapshot() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    LoadModelSnapshot snap = counters_;
    snap.compile_profiles = static_cast<std::uint64_t>(compile_.size());
    snap.run_profiles = static_cast<std::uint64_t>(run_.size());
    snap.inflight_jobs = inflight_jobs_;
    snap.inflight_predicted_seconds = inflight_predicted_;
    return snap;
}

} // namespace chehab::service
