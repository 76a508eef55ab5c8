/// \file
/// Cold-vs-warm fleet restart benchmark for the persistence tier
/// (service/persist.h). Two back-to-back service lifetimes share one
/// on-disk cache directory:
///
///   cold  — empty directory: every distinct kernel pays a full
///           optimizer run, and the artifacts are written back.
///   warm  — a fresh service over the same directory, as after a
///           restart/redeploy: the same kernels load their compiled
///           artifacts from disk instead of recompiling.
///
/// The request mix is 90% duplicates (each distinct kernel is
/// submitted `repeats` times; duplicates join the in-flight compile or
/// hit the in-memory cache), which is the regime where a restart hurts
/// most: the whole fleet stalls behind the handful of distinct
/// compiles. The reported metric is *time to first N results* with N =
/// the number of distinct kernels — the moment every kernel has
/// answered once and the fleet is effectively re-warmed.
///
/// Gates (all hard failures):
///   - every response, cold and warm, matches the plaintext reference
///     evaluator modulo the plaintext modulus;
///   - the warm run is bit-identical to the cold run — same output
///     vectors, same disassembled program per request — i.e. a
///     warm-loaded artifact is indistinguishable from a fresh compile
///     (the determinism contract in service/persist.h);
///   - the warm run actually hit the store (persist_hits > 0) and the
///     cold run actually populated it (persist_writes > 0);
///   - what persistence saves: the warm run compiles nothing
///     (stats.compiled == 0) and loads each distinct kernel from the
///     store once per shard that serves it: N loads with one shard (the
///     fast mode), at most N per shard with more, since the router may
///     move a run off its affinity shard.
///
/// The time-to-first-N ratio is printed, not gated. A greedy compile
/// takes about a millisecond, so run time, which both phases pay, sets
/// the ratio (about 2x on a 4-vCPU host); compile counts say whether
/// the restart skipped the compiles.
///
/// Usage:
///   bench_warm_restart
///
/// Environment knobs (see bench/common.h):
///   CHEHAB_BENCH_FAST=1    smaller mix, cheaper pipeline
///
/// Writes results/warm_restart.csv.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "benchsuite/kernels.h"
#include "common.h"
#include "ir/evaluator.h"
#include "service/shard_router.h"
#include "support/csv.h"
#include "support/stopwatch.h"

namespace {

using namespace chehab;

service::RunRequest
makeRequest(const benchsuite::Kernel& kernel, int index, int repeat,
            int max_steps)
{
    service::RunRequest request;
    request.name =
        kernel.name + "#" + std::to_string(repeat);
    request.source = kernel.program;
    request.pipeline = compiler::DriverConfig::greedy({}, max_steps);
    request.params.n = 128;
    request.params.prime_count = 4;
    request.params.seed = 17;
    request.inputs = benchsuite::syntheticInputs(kernel.program);
    // Jitter the duplicate submissions' inputs so they stay distinct in
    // the *run* cache while sharing one compile key — the mix is 90%
    // compile-duplicates, not 90% fully-cached no-ops. The jitter is a
    // pure function of (index, repeat), so the cold and warm runs
    // submit byte-identical request streams and their responses can be
    // compared for bit-identity.
    for (auto& [name, value] : request.inputs) {
        value += ((index * 3 + repeat * 7 + 1) % 9 + 9) % 9;
    }
    request.key_budget = 0;
    return request;
}

/// Mirrors the service execute tests: scalar sources compare slot 0,
/// vector sources the full width, both modulo the plaintext modulus.
bool
outputMatches(const service::RunRequest& reference,
              const service::RunResponse& response)
{
    const auto norm = [](std::int64_t v, std::int64_t t) {
        return ((v % t) + t) % t;
    };
    const auto t =
        static_cast<std::int64_t>(reference.params.plain_modulus);
    const ir::Value expected =
        ir::Evaluator().evaluate(reference.source, reference.inputs);
    const std::vector<std::int64_t>& got = response.result.output;
    if (got.empty()) return false;
    if (expected.is_vector) {
        if (got.size() != expected.slots.size()) return false;
        for (std::size_t s = 0; s < got.size(); ++s) {
            if (norm(got[s], t) != norm(expected.slots[s], t)) {
                return false;
            }
        }
        return true;
    }
    return norm(got[0], t) == norm(expected.slots[0], t);
}

struct PhaseOutcome
{
    double first_n_seconds = 0.0; ///< Until every distinct kernel answered.
    double wall_seconds = 0.0;    ///< Until the whole 90%-dup mix drained.
    int jobs = 0;
    int wrong_outputs = 0;
    service::ServiceStats stats;
    std::vector<service::RunResponse> responses;
};

/// One service lifetime over `cache_dir`. The batch is ordered with the
/// N distinct kernels first and the duplicate tail after, so "time to
/// first N results" is read off by draining the first N futures in
/// submission order.
PhaseOutcome
runPhase(const std::vector<benchsuite::Kernel>& mix, int repeats,
         const std::string& cache_dir, int shards, int total_workers,
         int max_steps)
{
    service::ServiceConfig config;
    config.shards = shards;
    config.num_workers = std::max(1, total_workers / shards);
    config.max_lanes = 1; // Solo runs: no packing nondeterminism in play.
    config.cache_dir = cache_dir;
    service::ShardedService service(config);

    std::vector<service::RunRequest> batch;
    for (int repeat = 0; repeat < repeats; ++repeat) {
        for (std::size_t k = 0; k < mix.size(); ++k) {
            batch.push_back(makeRequest(mix[k], static_cast<int>(k),
                                        repeat, max_steps));
        }
    }
    std::vector<service::RunRequest> reference = batch;

    PhaseOutcome outcome;
    outcome.jobs = static_cast<int>(batch.size());
    const Stopwatch watch;
    std::vector<std::future<service::RunResponse>> futures;
    futures.reserve(batch.size());
    for (service::RunRequest& request : batch) {
        futures.push_back(service.submitRun(std::move(request)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        outcome.responses.push_back(futures[i].get());
        if (i + 1 == mix.size()) {
            outcome.first_n_seconds = watch.elapsedSeconds();
        }
    }
    outcome.wall_seconds = watch.elapsedSeconds();
    service.drain();
    outcome.stats = service.stats();

    for (std::size_t i = 0; i < outcome.responses.size(); ++i) {
        const service::RunResponse& response = outcome.responses[i];
        if (!response.ok || !outputMatches(reference[i], response)) {
            ++outcome.wrong_outputs;
            std::fprintf(stderr, "[bench] %s OUTPUT MISMATCH%s%s\n",
                         response.name.c_str(),
                         response.ok ? "" : ": ",
                         response.ok ? "" : response.error.c_str());
        }
    }
    return outcome;
}

/// The warm restart must be invisible in the results: same outputs
/// bit-for-bit, same compiled program per request.
int
countIdentityMismatches(const PhaseOutcome& cold,
                        const PhaseOutcome& warm)
{
    int mismatches = 0;
    const std::size_t n =
        std::min(cold.responses.size(), warm.responses.size());
    for (std::size_t i = 0; i < n; ++i) {
        const service::RunResponse& a = cold.responses[i];
        const service::RunResponse& b = warm.responses[i];
        if (a.name != b.name || a.result.output != b.result.output ||
            a.compiled.program.disassemble() !=
                b.compiled.program.disassemble()) {
            ++mismatches;
            std::fprintf(stderr,
                         "[bench] %s COLD/WARM IDENTITY MISMATCH\n",
                         a.name.c_str());
        }
    }
    return mismatches;
}

} // namespace

int
main()
{
    const benchcommon::Budget budget = benchcommon::budgetFromEnv();
    const int max_steps = budget.fast ? 10 : 50;
    const int repeats = 10; // 1 distinct + 9 duplicates = 90%-dup mix.
    const int shards = budget.fast ? 1 : 2;
    const int total_workers = 4;

    std::vector<benchsuite::Kernel> mix = {
        benchsuite::dotProduct(16),      benchsuite::l2Distance(16),
        benchsuite::polyReg(8),          benchsuite::hammingDistance(16),
        benchsuite::linearReg(8),        benchsuite::dotProduct(8),
        benchsuite::l2Distance(8),       benchsuite::polyReg(4)};
    if (budget.fast) mix.resize(4);

    const std::filesystem::path cache_dir =
        std::filesystem::temp_directory_path() /
        ("chehab_warm_restart_" + std::to_string(getpid()));
    std::filesystem::remove_all(cache_dir);

    std::printf("bench_warm_restart: %zu kernels x %d repeats "
                "(90%% dup), %d shards, %d workers, max_steps=%d\n",
                mix.size(), repeats, shards, total_workers, max_steps);
    std::printf("cache dir: %s\n\n", cache_dir.string().c_str());

    const PhaseOutcome cold = runPhase(mix, repeats, cache_dir.string(),
                                       shards, total_workers, max_steps);
    const PhaseOutcome warm = runPhase(mix, repeats, cache_dir.string(),
                                       shards, total_workers, max_steps);
    std::filesystem::remove_all(cache_dir);

    const double speedup =
        warm.first_n_seconds > 0.0
            ? cold.first_n_seconds / warm.first_n_seconds
            : 0.0;
    const int identity_mismatches = countIdentityMismatches(cold, warm);

    std::printf("%6s %6s %12s %10s %9s %8s %8s %8s %8s\n", "phase",
                "jobs", "first_N_ms", "wall_ms", "compiled", "p.hits",
                "p.miss", "p.corr", "p.write");
    const auto printPhase = [](const char* name,
                               const PhaseOutcome& outcome) {
        std::printf("%6s %6d %12.2f %10.2f %9llu %8llu %8llu %8llu %8llu\n",
                    name, outcome.jobs, outcome.first_n_seconds * 1e3,
                    outcome.wall_seconds * 1e3,
                    static_cast<unsigned long long>(outcome.stats.compiled),
                    static_cast<unsigned long long>(
                        outcome.stats.persist.hits),
                    static_cast<unsigned long long>(
                        outcome.stats.persist.misses),
                    static_cast<unsigned long long>(
                        outcome.stats.persist.corrupt),
                    static_cast<unsigned long long>(
                        outcome.stats.persist.writes));
    };
    printPhase("cold", cold);
    printPhase("warm", warm);
    std::printf("\nwarm restart speedup to first %zu results: %.2fx\n",
                mix.size(), speedup);

    std::filesystem::create_directories("results");
    CsvWriter csv("results/warm_restart.csv",
                  {"phase", "jobs", "first_n_s", "wall_s",
                   "persist_hits", "persist_misses", "persist_corrupt",
                   "persist_writes", "wrong_outputs",
                   "identity_mismatches", "speedup_first_n"});
    csv.writeRow("cold", cold.jobs, cold.first_n_seconds,
                 cold.wall_seconds, cold.stats.persist.hits,
                 cold.stats.persist.misses, cold.stats.persist.corrupt,
                 cold.stats.persist.writes, cold.wrong_outputs, 0, 1.0);
    csv.writeRow("warm", warm.jobs, warm.first_n_seconds,
                 warm.wall_seconds, warm.stats.persist.hits,
                 warm.stats.persist.misses, warm.stats.persist.corrupt,
                 warm.stats.persist.writes, warm.wrong_outputs,
                 identity_mismatches, speedup);
    std::printf("wrote results/warm_restart.csv\n");

    bool ok = true;
    if (cold.wrong_outputs + warm.wrong_outputs > 0) {
        std::fprintf(stderr, "bench_warm_restart: OUTPUT MISMATCHES\n");
        ok = false;
    }
    if (identity_mismatches > 0) {
        std::fprintf(stderr,
                     "bench_warm_restart: warm run not bit-identical "
                     "to cold run\n");
        ok = false;
    }
    if (cold.stats.persist.writes == 0) {
        std::fprintf(stderr,
                     "bench_warm_restart: cold run wrote no artifacts\n");
        ok = false;
    }
    if (warm.stats.persist.hits == 0) {
        std::fprintf(stderr,
                     "bench_warm_restart: warm run loaded no artifacts\n");
        ok = false;
    }
    if (warm.stats.compiled != 0) {
        std::fprintf(stderr,
                     "bench_warm_restart: warm run compiled %llu kernels\n",
                     static_cast<unsigned long long>(warm.stats.compiled));
        ok = false;
    }
    const std::uint64_t distinct = mix.size();
    if (warm.stats.persist.hits < distinct ||
        warm.stats.persist.hits > distinct * static_cast<unsigned>(shards)) {
        std::fprintf(stderr,
                     "bench_warm_restart: warm run loaded %llu artifacts "
                     "for %llu distinct kernels on %d shards\n",
                     static_cast<unsigned long long>(
                         warm.stats.persist.hits),
                     static_cast<unsigned long long>(distinct), shards);
        ok = false;
    }
    return ok ? 0 : 1;
}
