/// \file
/// Per-layer probes of the traced run. Each probe calls one layer
/// directly on one thread, inside a span of the benchmark's recorder,
/// so the exported trace shows where the probe time went.
#include <algorithm>
#include <map>
#include <numeric>

#include "benchsuite/kernels.h"
#include "compiler/passes.h"
#include "compiler/runtime.h"
#include "fhe/ntt.h"
#include "fhe/sealite.h"
#include "ir/analysis.h"
#include "ir/cost_model.h"
#include "run_check.h"
#include "support/stopwatch.h"
#include "trs/rewriter.h"
#include "workloads.h"

namespace chehab::perfbench {

namespace {

using telemetry::ScopedSpan;
using telemetry::TraceRecorder;

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

template <class T>
double
meanOf(const std::vector<T>& values)
{
    return values.empty()
               ? 0.0
               : std::accumulate(values.begin(), values.end(), 0.0) /
                     static_cast<double>(values.size());
}

/// Operation nodes of \p e, DAG-unique: homomorphic plus plaintext ops.
int
opNodes(const ir::ExprPtr& e)
{
    const ir::OpCounts counts = ir::countOps(e);
    return counts.total() + counts.plain_ops;
}

/// Median seconds of \p reps calls of \p fn, each inside a span named
/// \p span (a string literal).
template <class Fn>
double
medianSeconds(TraceRecorder& recorder, const char* span, int reps, Fn fn)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const ScopedSpan scoped(recorder, span, TraceRecorder::clientTid());
        const Stopwatch watch;
        fn();
        samples.push_back(watch.elapsedSeconds());
    }
    return nearestRank(samples, 50.0);
}

/// ir, trs, rl and compiler-driver probes over the probe programs.
void
compileProbes(const ProbeSet& set, const rl::RlAgent& agent,
              TraceRecorder& recorder, std::map<std::string, double>& out)
{
    const trs::Ruleset& ruleset = agent.ruleset();
    const compiler::CompilerDriver driver(&ruleset, &agent);
    std::vector<int> nodes_in, nodes_out, matches, greedy_steps, rl_steps;
    std::vector<double> cost_s, greedy_s, enumerate_s, rl_s, compile_s;
    std::map<std::string, std::vector<double>> pass_s;
    const auto recordPasses = [&](const compiler::Compiled& compiled) {
        for (const compiler::PassStats& pass : compiled.stats.passes) {
            pass_s[pass.name].push_back(pass.seconds);
        }
    };
    const compiler::DriverConfig other = set.pipeline.hasPass("rl-trs")
                                             ? compiler::DriverConfig::greedy()
                                             : compiler::DriverConfig::rl();
    for (const Program& program : set.programs) {
        const ir::ExprPtr canonical = compiler::canonicalize(program.source);
        nodes_in.push_back(opNodes(program.source));

        // ir::cost takes microseconds: time a batch of calls.
        constexpr int kCostCalls = 20;
        cost_s.push_back(medianSeconds(recorder, "probe.ir.cost", 3, [&] {
                             for (int i = 0; i < kCostCalls; ++i) {
                                 ir::cost(canonical);
                             }
                         }) /
                         kCostCalls);

        trs::OptimizeResult greedy;
        greedy_s.push_back(medianSeconds(recorder, "probe.trs.greedy", 1, [&] {
            greedy = trs::greedyOptimize(ruleset, canonical);
        }));
        greedy_steps.push_back(greedy.steps);

        std::vector<trs::RuleMatches> actions;
        enumerate_s.push_back(
            medianSeconds(recorder, "probe.trs.enumerate", 3, [&] {
                actions = trs::enumerateActions(ruleset, canonical);
            }));
        int found = 0;
        for (const trs::RuleMatches& rule : actions) {
            found += static_cast<int>(rule.locations.size());
        }
        matches.push_back(found);

        rl::AgentResult optimized;
        rl_s.push_back(medianSeconds(recorder, "probe.rl.optimize", 1, [&] {
            optimized = agent.optimize(canonical);
        }));
        rl_steps.push_back(optimized.steps);

        compiler::Compiled compiled;
        compile_s.push_back(
            medianSeconds(recorder, "probe.compiler.compile", 1, [&] {
                compiled = driver.compile(program.source, set.pipeline);
            }));
        recordPasses(compiled);
        nodes_out.push_back(opNodes(compiled.optimized));
        {
            const ScopedSpan span(recorder, "probe.compiler.compile_other",
                                  TraceRecorder::clientTid());
            recordPasses(driver.compile(program.source, other));
        }
    }
    out["ir.nodes_in_mean"] = meanOf(nodes_in);
    out["ir.nodes_out_mean"] = meanOf(nodes_out);
    out["ir.cost.us_mean"] = meanOf(cost_s) * 1e6;
    out["trs.greedy.ms_mean"] = meanOf(greedy_s) * 1e3;
    out["trs.enumerate.ms_mean"] = meanOf(enumerate_s) * 1e3;
    out["trs.matches_mean"] = meanOf(matches);
    out["trs.rewrite_steps_mean"] = meanOf(greedy_steps);
    out["trs.ms_per_step"] =
        ratio(std::accumulate(greedy_s.begin(), greedy_s.end(), 0.0) * 1e3,
              std::accumulate(greedy_steps.begin(), greedy_steps.end(), 0.0));
    out["rl.optimize.ms_mean"] = meanOf(rl_s) * 1e3;
    out["rl.steps_mean"] = meanOf(rl_steps);
    out["rl.ms_per_step"] =
        ratio(std::accumulate(rl_s.begin(), rl_s.end(), 0.0) * 1e3,
              std::accumulate(rl_steps.begin(), rl_steps.end(), 0.0));
    for (const auto& [pass, samples] : pass_s) {
        out["compiler.pass." + pass + ".ms_mean"] = meanOf(samples) * 1e3;
    }
    out["compiler.compile.ms_mean"] = meanOf(compile_s) * 1e3;
    out["compiler.compile.contention"] =
        ratio(set.workload_compile_seconds,
              std::accumulate(compile_s.begin(), compile_s.end(), 0.0));
}

/// Runtime probe: the Fig. 5 kernels compiled with greedy TRS and
/// mod-switch, run on one primed runtime at the workload's ring size.
void
runtimeProbes(const ProbeSet& set, const trs::Ruleset& ruleset,
              TraceRecorder& recorder, std::map<std::string, double>& out)
{
    constexpr int kPasses = 2;
    const std::vector<Program> mix = fig5Mix();
    compiler::DriverConfig pipeline = compiler::DriverConfig::greedy();
    pipeline.passes.push_back("mod-switch");
    const compiler::CompilerDriver driver(&ruleset);
    std::vector<compiler::Compiled> compiled;
    std::vector<double> mod_switch_s;
    for (const Program& program : mix) {
        compiled.push_back(driver.compile(program.source, pipeline));
        for (const compiler::PassStats& pass : compiled.back().stats.passes) {
            if (pass.name == "mod-switch") mod_switch_s.push_back(pass.seconds);
        }
    }
    out["compiler.pass.mod-switch.ms_mean"] = meanOf(mod_switch_s) * 1e3;

    compiler::FheRuntime runtime(set.params);
    runtime.scheme().freshNoiseBudget();
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const ScopedSpan span(recorder, "probe.runtime.prime",
                              TraceRecorder::clientTid());
        runCompiled(runtime, compiled[i],
                    benchsuite::syntheticInputs(mix[i].source));
    }
    const compiler::InPlaceStats before = runtime.inPlaceStats();
    std::vector<double> setup, evaluate, decode;
    std::vector<int> ct_ct_mul, rotations, drops;
    for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < mix.size(); ++i) {
            const ScopedSpan span(recorder, "probe.runtime.run",
                                  TraceRecorder::clientTid());
            const compiler::RunResult result = runCompiled(
                runtime, compiled[i], benchsuite::syntheticInputs(mix[i].source));
            setup.push_back(result.setup_seconds);
            evaluate.push_back(result.exec_seconds);
            decode.push_back(result.decode_seconds);
            ct_ct_mul.push_back(result.counts.ct_ct_mul);
            rotations.push_back(result.counts.rotations);
            drops.push_back(result.mod_switch_drops);
        }
    }
    const double runs = static_cast<double>(setup.size());
    out["compiler.run.setup_ms_mean"] = meanOf(setup) * 1e3;
    out["compiler.run.evaluate_ms_mean"] = meanOf(evaluate) * 1e3;
    out["compiler.run.decode_ms_mean"] = meanOf(decode) * 1e3;
    out["compiler.run.setup_frac"] =
        ratio(meanOf(setup), meanOf(setup) + meanOf(evaluate) + meanOf(decode));
    out["compiler.run.ct_ct_mul_mean"] = meanOf(ct_ct_mul);
    out["compiler.run.rotations_mean"] = meanOf(rotations);
    out["compiler.run.inplace_copies_per_run"] =
        static_cast<double>(runtime.inPlaceStats().copies - before.copies) /
        runs;
    out["compiler.run.mod_switch_drops"] = meanOf(drops);
}

/// Direct SealLite calls at ring size \p n: the median of repeated calls
/// per operation, plus the steady-state arena allocations of a run.
void
fheProbes(int n, const trs::Ruleset& ruleset, TraceRecorder& recorder,
          std::map<std::string, double>& out)
{
    const std::string suffix = ".n" + std::to_string(n);
    const int slow_reps = n >= 4096 ? 5 : 9;
    constexpr int kFastReps = 15;
    fhe::SealLiteParams params;
    params.n = n;
    fhe::SealLite scheme(params);
    Rng rng(mixSeed(n, 0xfe));
    std::vector<std::int64_t> values(static_cast<std::size_t>(scheme.slots()));
    for (std::int64_t& value : values) value = rng.uniformRange(0, 65536);

    fhe::Plaintext plain = scheme.encode(values);
    const fhe::Ciphertext a = scheme.encrypt(plain);
    const fhe::Ciphertext b = scheme.encrypt(plain);
    scheme.makeGaloisKeys({1});
    const auto ms = [&](const char* span, int reps, auto fn) {
        return medianSeconds(recorder, span, reps, fn) * 1e3;
    };
    out["fhe.encode.ms" + suffix] = ms("probe.fhe.encode", slow_reps,
                                       [&] { scheme.encode(values); });
    out["fhe.decode.ms" + suffix] = ms("probe.fhe.decode", slow_reps,
                                       [&] { scheme.decode(plain); });
    out["fhe.encrypt.ms" + suffix] = ms("probe.fhe.encrypt", kFastReps, [&] {
        scheme.recycle(scheme.encrypt(plain));
    });
    out["fhe.decrypt.ms" + suffix] = ms("probe.fhe.decrypt", kFastReps,
                                        [&] { scheme.decryptPlain(a); });
    out["fhe.noise_budget.ms" + suffix] = ms(
        "probe.fhe.noise_budget", kFastReps, [&] { scheme.noiseBudgetBits(a); });
    out["fhe.add.ms" + suffix] = ms("probe.fhe.add", kFastReps, [&] {
        scheme.recycle(scheme.add(a, b));
    });
    out["fhe.mul_plain.ms" + suffix] = ms("probe.fhe.mul_plain", kFastReps, [&] {
        scheme.recycle(scheme.mulPlain(a, plain));
    });
    out["fhe.multiply.ms" + suffix] = ms("probe.fhe.multiply", kFastReps, [&] {
        scheme.recycle(scheme.multiply(a, b));
    });
    out["fhe.rotate.ms" + suffix] = ms("probe.fhe.rotate", kFastReps, [&] {
        scheme.recycle(scheme.rotate(a, 1));
    });

    const std::shared_ptr<const fhe::NttTables> tables =
        fhe::acquireNttTables(n, scheme.primeChain().front());
    std::vector<std::uint64_t> poly(static_cast<std::size_t>(n));
    for (std::uint64_t& coeff : poly) {
        coeff = rng.uniformInt(scheme.primeChain().front());
    }
    constexpr int kNttCalls = 20;
    out["fhe.ntt_forward.us" + suffix] =
        medianSeconds(recorder, "probe.fhe.ntt_forward", 5, [&] {
            for (int i = 0; i < kNttCalls; ++i) tables->forward(poly.data());
        }) * 1e6 / kNttCalls;
    out["fhe.ntt_inverse.us" + suffix] =
        medianSeconds(recorder, "probe.fhe.ntt_inverse", 5, [&] {
            for (int i = 0; i < kNttCalls; ++i) tables->inverse(poly.data());
        }) * 1e6 / kNttCalls;

    // Steady-state arena allocations: prime a runtime, then count.
    constexpr int kRuns = 3;
    const Program kernel = fig5Mix().front();
    const compiler::Compiled compiled =
        compiler::CompilerDriver(&ruleset).compile(
            kernel.source, compiler::DriverConfig::greedy());
    const ir::Env inputs = benchsuite::syntheticInputs(kernel.source);
    compiler::FheRuntime runtime(params);
    runCompiled(runtime, compiled, inputs);
    const fhe::PolyArena::Stats primed = runtime.arenaStats();
    for (int r = 0; r < kRuns; ++r) {
        const ScopedSpan span(recorder, "probe.fhe.arena_run",
                              TraceRecorder::clientTid());
        runCompiled(runtime, compiled, inputs);
    }
    out["fhe.arena_allocs_per_run" + suffix] =
        static_cast<double>(runtime.arenaStats().allocs - primed.allocs) / kRuns;
}

/// Service and pool numbers of the traced window (zero for a workload
/// that bypasses the service).
void
serviceMetrics(const Window& window, std::map<std::string, double>& out)
{
    const ServiceCounters& s = window.service;
    const auto p = [](const Buckets& buckets, double percentile) {
        return bucketPercentile(buckets, percentile) * 1e3;
    };
    out["service.qwait_ms_p50"] = p(s.queue_wait, 50.0);
    out["service.qwait_ms_p99"] = p(s.queue_wait, 99.0);
    out["service.exec_ms_p50"] = p(s.execute, 50.0);
    out["service.exec_ms_p99"] = p(s.execute, 99.0);
    out["service.window_wait_ms_p50"] = p(s.window_wait, 50.0);
    out["service.window_wait_ms_p99"] = p(s.window_wait, 99.0);
    out["service.compile_cache_hit_frac"] =
        ratio(static_cast<double>(s.compile_hits + s.compile_joins),
              static_cast<double>(s.compile_hits + s.compile_joins +
                                  s.compile_misses));
    out["service.run_cache_hit_frac"] =
        ratio(static_cast<double>(s.run_hits + s.run_joins),
              static_cast<double>(s.run_hits + s.run_joins + s.run_misses));
    // Kernel slices executed: one per solo run, one per member of each
    // packed row (a single-kernel packed row is one member).
    const double slices = static_cast<double>(
        s.solo_runs + s.composite_members + s.packed_groups -
        s.composite_groups);
    out["service.lanes_per_row"] =
        ratio(static_cast<double>(s.packed_lanes + s.solo_runs),
              static_cast<double>(s.packed_groups + s.solo_runs));
    out["service.composite_member_frac"] =
        ratio(static_cast<double>(s.composite_members), slices);
    out["service.packed_fallback_frac"] =
        ratio(static_cast<double>(s.packed_fallbacks),
              slices - static_cast<double>(s.solo_runs));
    out["service.load_model_err_pct"] = meanOf(window.load_model_err) * 100.0;
    out["support.pool_busy_frac"] =
        ratio(s.pool_busy_seconds, window.workers * window.seconds);
}

} // namespace

void
runProbes(const Workload& workload, const Window& traced, Tracer& tracer,
          std::map<std::string, double>& out)
{
    TraceRecorder& recorder = tracer.recorder;
    const ProbeSet set = workload.probeSet();
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    std::unique_ptr<rl::RlAgent> agent;
    {
        const ScopedSpan span(recorder, "probe.rl.train",
                              TraceRecorder::clientTid());
        agent = trainAgent(ruleset);
    }
    compileProbes(set, *agent, recorder, out);
    runtimeProbes(set, ruleset, recorder, out);
    for (const int n : {1024, 4096}) fheProbes(n, ruleset, recorder, out);
    serviceMetrics(traced, out);
}

} // namespace chehab::perfbench
