/// \file
/// Timer-augmented load model throughput benchmark: jobs/sec on a
/// *skewed* kernel mix — a few heavy kernels buried in many light ones
/// — under the service's scheduler (measured-EWMA LPT dispatch,
/// cost-driven consolidation, fixed batch window), at each lane cap.
///
/// The skew is the point: with uniform costs any order and any row
/// assignment works. Once a handful of kernels dominate the wall
/// time, the load model prices row sharing in measured seconds: heavy
/// (execution-dominated) groups get their own rows while workers are
/// free, and light (overhead-dominated) groups keep sharing.
///
/// Each lane cap runs warmup rounds first (compiles cached, EWMA
/// profiles trained), then measures repeated rounds of the same batch
/// with distinct inputs per round (so rounds coalesce instead of
/// hitting the run cache). Rounds are closed-loop: the next starts when
/// the last response of this one arrives, so every partial group waits
/// out the batch window (the service default, 0.5 ms) before it
/// flushes. Correctness gate: every response's outputs are checked
/// against the plaintext evaluator — packed/composite outputs stay
/// bit-identical to solo.
///
/// Usage:
///   bench_load_model [LANES...]   lane caps to sweep (default 1 8 16;
///                                 1 = batching off)
///
/// Environment knobs (see bench/common.h):
///   CHEHAB_BENCH_FAST=1     smaller batch and rewrite budget
///   CHEHAB_BENCH_TRACE=PATH write a Chrome trace-event JSON of the
///                           sweep at the last lane cap (nightly CI
///                           uploads it as an artifact)
///
/// Writes results/load_model.csv — including the per-phase latency
/// percentile columns (qwait/exec p50/p99, window-wait p99) from the
/// service's telemetry histograms — and prints a summary table per
/// lane cap. Telemetry is on for every sweep; its overhead is part of
/// what this bench keeps honest (the recorder must stay invisible next
/// to FHE execution).
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "benchsuite/kernels.h"
#include "common.h"
#include "ir/evaluator.h"
#include "service/compile_service.h"
#include "support/csv.h"
#include "support/parse_int.h"
#include "support/stopwatch.h"

namespace {

using namespace chehab;

service::RunRequest
makeRequest(const benchsuite::Kernel& kernel, int index, int round,
            int max_steps)
{
    service::RunRequest request;
    request.name = kernel.name + "#" + std::to_string(index) + "." +
                   std::to_string(round);
    request.source = kernel.program;
    request.pipeline = compiler::DriverConfig::greedy({}, max_steps);
    request.params.n = 128; // 64-slot row: toy-sized small kernels.
    request.params.prime_count = 4;
    request.params.seed = 17;
    request.inputs = benchsuite::syntheticInputs(kernel.program);
    // Distinct inputs per request AND per round: identical requests
    // would collapse in the run cache instead of exercising the
    // scheduler. Kept small so reduction kernels stay far from the
    // plaintext modulus.
    for (auto& [name, value] : request.inputs) {
        value += ((index * 3 + round * 7 + 1) % 9 + 9) % 9;
    }
    request.key_budget = 0;
    return request;
}

struct Outcome
{
    double wall_seconds = 0.0;
    double jobs_per_second = 0.0;
    int wrong_outputs = 0;
    service::ServiceStats stats;
};

/// Run \p rounds measured rounds of the mix on one service packing at
/// most \p lanes lanes per row.
Outcome
runSweep(const std::vector<benchsuite::Kernel>& mix, int requests_per_kernel,
         int lanes, int workers, int warmup_rounds, int rounds,
         int max_steps, const std::string& trace_path)
{
    service::ServiceConfig config;
    config.num_workers = workers;
    config.max_lanes = lanes;
    // Always on: the percentile columns come from here, and running the
    // throughput measurement with the recorder live is the regression
    // gate on its overhead.
    config.telemetry = true;
    // The service's default batch window: every partial group of a
    // closed-loop round waits it out in full, so a window of tens of ms
    // would make lane caps above 1 measure the window, not dispatch or
    // row assignment.
    config.cross_kernel = lanes != 1;
    service::CompileService service(config);

    auto makeRound = [&](int round) {
        std::vector<service::RunRequest> batch;
        int index = 0;
        for (const benchsuite::Kernel& kernel : mix) {
            for (int r = 0; r < requests_per_kernel; ++r) {
                batch.push_back(
                    makeRequest(kernel, index++, round, max_steps));
            }
        }
        return batch;
    };

    // Concurrent clients: several submitter threads, each owning a
    // contiguous slice of the round (a kernel's requests stay on one
    // client, as one tenant's burst would). Serializing submission on
    // one thread would hide the batch window behind the caller's own
    // canonicalize time.
    const int clients = 4;
    const auto submitSlice = [&service](
                                 std::vector<service::RunRequest> slice,
                                 int* failures) {
        std::vector<std::future<service::RunResponse>> futures;
        futures.reserve(slice.size());
        for (service::RunRequest& request : slice) {
            futures.push_back(service.submitRun(std::move(request)));
        }
        for (auto& future : futures) {
            const service::RunResponse response = future.get();
            if (!response.ok) {
                std::fprintf(stderr, "[bench] %s FAILED: %s\n",
                             response.name.c_str(),
                             response.error.c_str());
                ++*failures;
            }
        }
    };
    const auto runRound = [&](std::vector<service::RunRequest> batch,
                              int* failures) {
        const std::size_t per_client =
            (batch.size() + clients - 1) / clients;
        std::vector<std::thread> threads;
        std::vector<int> slice_failures(clients, 0);
        for (int c = 0; c < clients; ++c) {
            const std::size_t begin =
                std::min(static_cast<std::size_t>(c) * per_client,
                         batch.size());
            const std::size_t end =
                std::min(begin + per_client, batch.size());
            std::vector<service::RunRequest> slice(
                std::make_move_iterator(batch.begin() +
                                        static_cast<std::ptrdiff_t>(begin)),
                std::make_move_iterator(batch.begin() +
                                        static_cast<std::ptrdiff_t>(end)));
            threads.emplace_back(submitSlice, std::move(slice),
                                 &slice_failures[static_cast<std::size_t>(
                                     c)]);
        }
        for (std::thread& thread : threads) thread.join();
        for (int f : slice_failures) *failures += f;
    };

    // Warmup: caches the compiles and trains the EWMA profiles the
    // scheduler dispatches on, under the same client concurrency the
    // measurement uses.
    Outcome outcome;
    for (int w = 0; w < warmup_rounds; ++w) {
        int ignored = 0;
        runRound(makeRound(-1 - w), &ignored);
    }

    int jobs = 0;
    const Stopwatch wall;
    for (int round = 0; round < rounds; ++round) {
        std::vector<service::RunRequest> batch = makeRound(round);
        jobs += static_cast<int>(batch.size());
        runRound(std::move(batch), &outcome.wrong_outputs);
    }
    outcome.wall_seconds = wall.elapsedSeconds();
    outcome.jobs_per_second =
        static_cast<double>(jobs) / outcome.wall_seconds;
    // Let the final tasks' telemetry epilogues land before snapshotting
    // (futures resolve from inside worker tasks); the wall clock above
    // intentionally stops at response availability.
    service.drain();
    outcome.stats = service.stats();

    // Correctness gate on a final round: packed/composite outputs must
    // equal the plaintext evaluator's solo semantics — modulo the
    // plaintext modulus, which is what the scheme computes in —
    // however the scheduler grouped and ordered the work.
    std::vector<service::RunRequest> check = makeRound(rounds);
    std::vector<service::RunRequest> reference = check;
    std::vector<service::RunResponse> responses =
        service.runBatch(std::move(check));
    const auto norm = [](std::int64_t v, std::int64_t t) {
        return ((v % t) + t) % t;
    };
    for (std::size_t i = 0; i < responses.size(); ++i) {
        if (!responses[i].ok) {
            ++outcome.wrong_outputs;
            continue;
        }
        const auto t = static_cast<std::int64_t>(
            reference[i].params.plain_modulus);
        const ir::Value expected = ir::Evaluator().evaluate(
            reference[i].source, reference[i].inputs);
        const std::vector<std::int64_t>& got = responses[i].result.output;
        // Scalar sources may be vectorized by the TRS (rotate-reduce):
        // slot 0 carries the semantic result either way; vector sources
        // compare the full width (mirrors the service execute tests).
        bool same = !got.empty();
        if (same && expected.is_vector) {
            same = got.size() == expected.slots.size();
            for (std::size_t s = 0; s < got.size() && same; ++s) {
                same = norm(got[s], t) == norm(expected.slots[s], t);
            }
        } else if (same) {
            same = norm(got[0], t) == norm(expected.slots[0], t);
        }
        if (!same) {
            ++outcome.wrong_outputs;
            std::fprintf(stderr, "[bench] %s OUTPUT MISMATCH\n",
                         responses[i].name.c_str());
        }
    }
    if (!trace_path.empty()) {
        service.drain();
        std::ofstream trace(trace_path);
        if (trace) {
            service.telemetry().writeChromeTrace(trace);
            std::printf("[bench] wrote %s\n", trace_path.c_str());
        } else {
            std::fprintf(stderr, "[bench] cannot write %s\n",
                         trace_path.c_str());
        }
    }
    return outcome;
}

} // namespace

int
main(int argc, char** argv)
{
    const benchcommon::Budget budget = benchcommon::budgetFromEnv();
    const int max_steps = budget.fast ? 8 : 20;
    const int requests_per_kernel = 2;
    const int workers = 8;
    const int warmup_rounds = 4;
    const int rounds = budget.fast ? 3 : 5;

    std::vector<int> lane_caps;
    for (int i = 1; i < argc; ++i) {
        int lanes = 0;
        if (!parseInt(argv[i], lanes) || lanes < 0) {
            std::fprintf(stderr,
                         "bench_load_model: bad lane count '%s'\n",
                         argv[i]);
            return 2;
        }
        lane_caps.push_back(lanes);
    }
    if (lane_caps.empty()) lane_caps = {1, 8, 16};

    // The skewed 16-kernel mix: 4 heavy kernels (wide reductions —
    // long instruction streams, multi-step rotation plans, execution
    // times an order of magnitude above the rest) buried in 12 light
    // ones. All are lane-safe on the 128-slot row, so every scheduling
    // decision — dispatch order, row assignment — shows in the
    // measurement.
    std::vector<benchsuite::Kernel> mix = {
        // Heavy tail.
        benchsuite::dotProduct(32),     benchsuite::l2Distance(32),
        benchsuite::polyReg(16),        benchsuite::hammingDistance(32),
        // Light body.
        benchsuite::dotProduct(2),      benchsuite::polyReg(2),
        benchsuite::l2Distance(2),      benchsuite::linearReg(2),
        benchsuite::hammingDistance(2), benchsuite::dotProduct(4),
        benchsuite::polyReg(4),         benchsuite::l2Distance(4),
        benchsuite::linearReg(4),       benchsuite::hammingDistance(4),
        benchsuite::dotProduct(8),      benchsuite::linearReg(8)};
    if (budget.fast) mix.resize(8); // Keeps the 4-heavy/4-light skew.

    const char* trace_env = std::getenv("CHEHAB_BENCH_TRACE");
    const std::string trace_path = trace_env ? trace_env : "";

    std::filesystem::create_directories("results");
    std::vector<std::string> header = {
        "lanes",           "jobs_per_sec",     "wall_s",
        "packed_groups",   "packed_lanes",     "composite_groups",
        "solo_runs",       "packed_fallbacks", "window_flushes",
        "warm_predictions", "cold_predictions", "share_preferred",
        "solo_preferred",  "wrong_outputs"};
    benchcommon::appendLatencyColumns(header);
    CsvWriter csv("results/load_model.csv", header);

    std::printf("bench_load_model: %zu kernels x %d requests x %d "
                "rounds on %d workers (max_steps=%d)\n\n",
                mix.size(), requests_per_kernel, rounds, workers,
                max_steps);
    std::printf("%5s  %10s  %s\n", "lanes", "jobs/s", "latency");

    bool correct = true;
    for (int lanes : lane_caps) {
        // The trace artifact (when requested) captures the sweep at the
        // last lane cap — the configuration the nightly wants a
        // span-level look at.
        const bool trace_this =
            !trace_path.empty() && lanes == lane_caps.back();
        const Outcome outcome =
            runSweep(mix, requests_per_kernel, lanes, workers,
                     warmup_rounds, rounds, max_steps,
                     trace_this ? trace_path : "");
        correct = correct && outcome.wrong_outputs == 0;
        const benchcommon::LatencySummary lat =
            benchcommon::latencySummary(outcome.stats.telemetry);
        std::printf("%5d  %10.1f  qwait p50/p99 %.2f/%.2f ms, "
                    "exec p50/p99 %.2f/%.2f ms, window p99 %.2f ms\n",
                    lanes, outcome.jobs_per_second, lat.qwait_p50 * 1e3,
                    lat.qwait_p99 * 1e3, lat.exec_p50 * 1e3,
                    lat.exec_p99 * 1e3, lat.window_wait_p99 * 1e3);
        csv.writeRow(lanes, outcome.jobs_per_second, outcome.wall_seconds,
                     outcome.stats.packed_groups, outcome.stats.packed_lanes,
                     outcome.stats.composite_groups, outcome.stats.solo_runs,
                     outcome.stats.packed_fallbacks,
                     outcome.stats.window_flushes,
                     outcome.stats.load_model.warm_predictions,
                     outcome.stats.load_model.cold_predictions,
                     outcome.stats.load_model.share_preferred,
                     outcome.stats.load_model.solo_preferred,
                     outcome.wrong_outputs, lat.qwait_p50, lat.qwait_p99,
                     lat.compile_p50, lat.compile_p99, lat.exec_p50,
                     lat.exec_p99, lat.window_wait_p99);
    }
    std::printf("\nwrote results/load_model.csv\n");
    if (!correct) {
        std::fprintf(stderr,
                     "bench_load_model: OUTPUT MISMATCHES DETECTED\n");
        return 1;
    }
    return 0;
}
