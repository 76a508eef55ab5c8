/// \file
/// The benchmark's three workloads and the per-layer probes of its traced
/// run. Each workload is a closed loop driven from one client thread
/// through the library's public entry points; every output is checked
/// against the independent ir::Evaluator.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/driver.h"
#include "fhe/sealite.h"
#include "metrics.h"
#include "rl/agent.h"
#include "stream.h"
#include "support/telemetry.h"
#include "trs/ruleset.h"

namespace chehab::perfbench {

/// Service worker threads. With the client thread this leaves one of
/// four cores to the rest of the machine, which halved the run-to-run
/// spread of serve-mixed against three workers (shared 4-vCPU VM).
inline constexpr int kServiceWorkers = 2;

/// The seeds a workload is measured with: the default seed, and a second
/// seed held out for validating later claims. Why each workload exists
/// is in BENCHMARK.json and perfbench/README.md.
struct WorkloadInfo
{
    const char* name;
    std::uint64_t default_seed;
    std::uint64_t holdout_seed;
};

const std::vector<WorkloadInfo>& workloadTable();

/// State of a traced run: the benchmark's own span recorder, plus the
/// service recorders whose events join the exported Chrome trace (each
/// must stay alive until the export).
struct Tracer
{
    telemetry::TraceRecorder recorder{true, std::size_t{1} << 18};
    std::vector<const telemetry::TraceRecorder*> services;
};

/// What one measured window produced.
struct Window
{
    std::vector<double> latencies_s; ///< One per completed request.
    std::uint64_t attempted = 0;
    /// Requests that failed, were refused, or returned a wrong output.
    std::uint64_t failed = 0;
    double seconds = 0.0; ///< Measured (active) time.
    /// Service activity inside the window; meaningful when workers > 0.
    int workers = 0;
    ServiceCounters service;
    /// |predicted - measured| / measured per freshly computed response.
    std::vector<double> load_model_err;
};

/// The fixed program set the per-layer probes run on.
struct ProbeSet
{
    std::vector<Program> programs;
    compiler::DriverConfig pipeline;
    fhe::SealLiteParams params;
    /// Seconds the workload spent compiling one pass over programs
    /// (through the service, or on one thread when it has none).
    double workload_compile_seconds = 0.0;
};

/// Static cost and noise of the compiled programs. Both repeat exactly
/// for a fixed build, whatever the seed.
struct Quality
{
    double cost_geomean = 0.0;
    double noise_mean = 0.0;
    /// Every in-run recomputation matched bit for bit.
    bool repeatable = true;
    /// Quality-pass executions whose output disagreed with ir::Evaluator.
    std::uint64_t mismatches = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /// Build everything the measured window needs. May be called
    /// several times; every call starts over.
    virtual void setup() = 0;
    /// Run the closed loop for at least \p seconds of measured time.
    /// \p tracer is null in untraced runs.
    virtual Window measure(double seconds, Tracer* tracer) = 0;
    virtual Quality quality() = 0;
    virtual ProbeSet probeSet() const = 0;
};

/// \p telemetry turns on ServiceConfig::telemetry for traced runs.
/// Returns null for an unknown workload name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool telemetry);

/// The fixed-budget, fixed-seed PPO agent the rl probes run.
std::unique_ptr<rl::RlAgent> trainAgent(const trs::Ruleset& ruleset);

/// Per-layer probes: direct single-thread calls into ir, trs, rl, the
/// compiler driver and runtime, and fhe::SealLite, plus the service
/// numbers of the traced window. Sets one value per per-layer metric
/// (bar trace_overhead_frac, which needs the untraced window too).
void runProbes(const Workload& workload, const Window& traced,
               Tracer& tracer, std::map<std::string, double>& out);

} // namespace chehab::perfbench
