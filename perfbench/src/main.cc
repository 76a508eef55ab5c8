/// \file
/// The CHEHAB benchmark program.
///
/// Usage:
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             [--trace-dir DIR] [--commit ID]
///
/// Prints a machine-facts line, a detail line and, last, one JSON
/// result line {"correct", "attempted", "failed", "metrics"}. An
/// untraced run (--trace 0) reports the end-to-end metrics; a traced run
/// (--trace 1) measures the same window untraced and then traced, runs
/// the per-layer probes, writes a Chrome trace to DIR, and reports the
/// per-layer metrics. Exit status: 0 when the result is correct, 1 when
/// an output mismatched or a run failed (the result line still prints)
/// or no result could be made, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "fhe/ntt.h"
#include "metrics.h"
#include "specs.h"
#include "support/parse_int.h"
#include "support/stopwatch.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace chehab;
using namespace chehab::perfbench;

/// Set-ups per untraced run: at least kMinSetups, more while they take
/// under kSetupSeconds in total (cheap set-ups need many samples for a
/// steady median). setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;
/// The p99 is the median of this many consecutive slices' p99s:
/// serve-mixed awaits whole batches, so one stalled batch is more than
/// 1% of a run's samples and alone would set a plain p99. p50 and p90
/// stay pooled over the run, which averages a slow spell of the host
/// where a median of slices would snap to it.
constexpr int kP99Slices = 5;

struct Options
{
    std::string workload;
    std::int64_t seed = -1;
    double seconds = 0.0;
    int trace = -1;
    std::string trace_dir = ".bench_build/traces";
    std::string commit = "unknown";
};

int
usage(const char* message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR] [--commit ID]\n",
                 message);
    return 2;
}

bool
parseOptions(int argc, char** argv, Options& options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return false;
        const char* value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            if (!parseInt64(value, options.seed) || options.seed < 0) {
                return false;
            }
        } else if (arg == "--seconds") {
            if (!parseDouble(value, options.seconds) ||
                !(options.seconds > 0.0 && options.seconds <= 600.0)) {
                return false;
            }
        } else if (arg == "--trace") {
            if (!parseInt(value, options.trace) ||
                (options.trace != 0 && options.trace != 1)) {
                return false;
            }
        } else if (arg == "--trace-dir") {
            options.trace_dir = value;
        } else if (arg == "--commit") {
            options.commit = value;
        } else {
            return false;
        }
    }
    return !options.workload.empty() && options.seed >= 0 &&
           options.seconds > 0.0 && options.trace >= 0;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

double
jobsPerSecond(const Window& window)
{
    return window.seconds > 0.0
               ? static_cast<double>(window.latencies_s.size()) / window.seconds
               : 0.0;
}

JsonObject
paramsJson(const fhe::SealLiteParams& params)
{
    return JsonObject()
        .add("n", params.n)
        .add("prime_bits", params.prime_bits)
        .add("prime_count", params.prime_count)
        .add("plain_modulus", static_cast<std::uint64_t>(params.plain_modulus))
        .add("decomp_bits", params.decomp_bits)
        .add("seed", static_cast<std::uint64_t>(params.seed));
}

void
printMachineFacts(const Options& options, const WorkloadInfo& info,
                  const fhe::SealLiteParams& params)
{
    const JsonObject facts =
        JsonObject()
            .add("nproc", static_cast<int>(std::thread::hardware_concurrency()))
            .add("avx2_compiled", fhe::simdCompiledIn())
            .add("avx2_dispatched", fhe::simdEnabled())
            .add("build_type", PERFBENCH_BUILD_TYPE)
            .add("compiler", "gcc " __VERSION__)
            .add("commit", options.commit)
            .add("workload", options.workload)
            .add("seed", static_cast<std::uint64_t>(options.seed))
            .add("default_seed", info.default_seed)
            .add("holdout_seed", info.holdout_seed)
            .add("seconds", options.seconds)
            .add("trace", options.trace == 1)
            .add("service_workers", kServiceWorkers)
            .add("params", paramsJson(params));
    std::printf("%s\n", JsonObject().add("machine", facts).str().c_str());
}

/// Print the result line for \p values in the order of \p specs and
/// return the exit status: 0 when \p correct, else 1. Prints nothing
/// and returns 1 when a metric is missing or misnamed — a benchmark
/// defect, not a measurement.
int
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<MetricSpec>& specs,
            const std::map<std::string, double>& values)
{
    std::vector<Metric> metrics;
    for (const MetricSpec& spec : specs) {
        const auto found = values.find(spec.name);
        if (found == values.end() || !validMetricName(spec.name)) {
            std::fprintf(stderr, "perfbench: metric %s missing or misnamed\n",
                         spec.name.c_str());
            return 1;
        }
        metrics.push_back({spec.name, found->second, spec.unit});
    }
    std::printf("%s\n", resultLine(correct, attempted, failed, metrics).c_str());
    std::fflush(stdout);
    if (!correct) {
        std::fprintf(stderr, "perfbench: %llu of %llu requests failed or "
                             "mismatched, or quality did not repeat\n",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted));
    }
    return correct ? 0 : 1;
}

int
untracedRun(const Options& options)
{
    std::unique_ptr<Workload> workload =
        makeWorkload(options.workload, static_cast<std::uint64_t>(options.seed),
                     false);
    std::vector<double> setups;
    double setup_total = 0.0;
    while (static_cast<int>(setups.size()) < kMinSetups ||
           (setup_total < kSetupSeconds &&
            static_cast<int>(setups.size()) < kMaxSetups)) {
        const Stopwatch watch;
        workload->setup();
        setups.push_back(watch.elapsedSeconds());
        setup_total += setups.back();
    }
    const Window window = workload->measure(options.seconds, nullptr);
    const Quality quality = workload->quality();

    std::vector<double> latencies_ms;
    for (const double seconds : window.latencies_s) {
        latencies_ms.push_back(seconds * 1e3);
    }
    const std::map<std::string, double> values = {
        {"jobs_per_s", jobsPerSecond(window)},
        {"latency_ms_p50", nearestRank(latencies_ms, 50.0)},
        {"latency_ms_p90", nearestRank(latencies_ms, 90.0)},
        {"latency_ms_p99", segmentedPercentile(latencies_ms, 99.0, kP99Slices)},
        {"ok_frac", 1.0 - static_cast<double>(window.failed) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  window.attempted, 1))},
        {"setup_s", nearestRank(setups, 50.0)},
        {"peak_rss_mib", peakRssMib()},
        {"program_cost_geomean", quality.cost_geomean},
        {"noise_consumed_bits_mean", quality.noise_mean},
    };
    JsonObject setup_json;
    for (std::size_t i = 0; i < setups.size(); ++i) {
        setup_json.add(std::to_string(i), setups[i]);
    }
    const JsonObject detail =
        JsonObject()
            .add("latency_samples",
                 static_cast<std::uint64_t>(latencies_ms.size()))
            .add("latency_max_ms", latencies_ms.empty()
                                       ? 0.0
                                       : *std::max_element(latencies_ms.begin(),
                                                           latencies_ms.end()))
            .add("measured_s", window.seconds)
            .add("setup_s", setup_json)
            .add("failed_frac",
                 1.0 - values.at("ok_frac"))
            .add("quality_repeatable", quality.repeatable)
            .add("quality_mismatches", quality.mismatches);
    std::printf("%s\n", JsonObject().add("detail", detail).str().c_str());
    const bool correct = window.failed == 0 && window.attempted > 0 &&
                         quality.repeatable && quality.mismatches == 0;
    return printResult(correct, window.attempted, window.failed,
                       endToEndSpecs(), values);
}

int
tracedRun(const Options& options)
{
    const auto seed = static_cast<std::uint64_t>(options.seed);
    Window untraced;
    {
        std::unique_ptr<Workload> workload =
            makeWorkload(options.workload, seed, false);
        workload->setup();
        untraced = workload->measure(options.seconds, nullptr);
    }

    Tracer tracer;
    std::unique_ptr<Workload> workload =
        makeWorkload(options.workload, seed, true);
    {
        const telemetry::ScopedSpan span(tracer.recorder, "setup",
                                         telemetry::TraceRecorder::clientTid());
        workload->setup();
    }
    const Window traced = workload->measure(options.seconds, &tracer);
    std::map<std::string, double> values;
    runProbes(*workload, traced, tracer, values);
    const Quality quality = workload->quality();
    const double untraced_rate = jobsPerSecond(untraced);
    values["trace_overhead_frac"] =
        untraced_rate > 0.0 ? 1.0 - jobsPerSecond(traced) / untraced_rate : 0.0;

    std::error_code error;
    std::filesystem::create_directories(options.trace_dir, error);
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(seed) + ".json";
    std::ofstream trace(path);
    std::vector<const telemetry::TraceRecorder*> recorders = tracer.services;
    tracer.recorder.setTrackGroup(100);
    recorders.push_back(&tracer.recorder);
    telemetry::writeChromeTraceMerged(trace, recorders);
    trace.close();
    std::printf("%s\n",
                JsonObject()
                    .add("detail",
                         JsonObject()
                             .add("trace_file", trace ? path : "unwritten")
                             .add("untraced_jobs_per_s", untraced_rate)
                             .add("traced_jobs_per_s", jobsPerSecond(traced))
                             .add("trace_events",
                                  static_cast<std::uint64_t>(
                                      tracer.recorder.events().size()))
                             .add("qwait_samples",
                                  bucketTotal(traced.service.queue_wait))
                             .add("exec_samples",
                                  bucketTotal(traced.service.execute))
                             .add("window_wait_samples",
                                  bucketTotal(traced.service.window_wait)))
                    .str()
                    .c_str());

    const std::uint64_t attempted = untraced.attempted + traced.attempted;
    const std::uint64_t failed = untraced.failed + traced.failed;
    const bool correct = failed == 0 && attempted > 0 && quality.repeatable &&
                         quality.mismatches == 0;
    return printResult(correct, attempted, failed, perLayerSpecs(), values);
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parseOptions(argc, argv, options)) return usage("bad arguments");
    const auto info = std::find_if(
        workloadTable().begin(), workloadTable().end(),
        [&](const WorkloadInfo& w) { return options.workload == w.name; });
    if (info == workloadTable().end()) return usage("unknown workload");
    printMachineFacts(options, *info,
                      makeWorkload(options.workload, 0, false)->probeSet().params);
    // A library call that throws outside the service (compile in set-up,
    // a direct run or probe) ends the run without a result.
    try {
        return options.trace == 1 ? tracedRun(options) : untracedRun(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
