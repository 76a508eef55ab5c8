#include "specs.h"

namespace chehab::perfbench {

const std::vector<MetricSpec>&
endToEndSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"jobs_per_s", "1/s"},
        {"latency_ms_p50", "ms"},
        {"latency_ms_p90", "ms"},
        {"latency_ms_p99", "ms"},
        {"ok_frac", "frac"},
        {"setup_s", "s"},
        {"peak_rss_mib", "MiB"},
        {"program_cost_geomean", "cost"},
        {"noise_consumed_bits_mean", "bits"},
    };
    return specs;
}

const std::vector<MetricSpec>&
perLayerSpecs()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> out = {
            {"ir.nodes_in_mean", "count"},
            {"ir.nodes_out_mean", "count"},
            {"ir.cost.us_mean", "us"},
            {"trs.greedy.ms_mean", "ms"},
            {"trs.enumerate.ms_mean", "ms"},
            {"trs.matches_mean", "count"},
            {"trs.rewrite_steps_mean", "count"},
            {"trs.ms_per_step", "ms"},
            {"rl.optimize.ms_mean", "ms"},
            {"rl.steps_mean", "count"},
            {"rl.ms_per_step", "ms"},
        };
        for (const char* pass : {"canonicalize", "greedy-trs", "rl-trs",
                                 "schedule", "mod-switch"}) {
            out.push_back({std::string("compiler.pass.") + pass + ".ms_mean",
                           "ms"});
        }
        const std::vector<MetricSpec> rest = {
            {"compiler.compile.ms_mean", "ms"},
            {"compiler.compile.contention", "ratio"},
            {"compiler.run.setup_ms_mean", "ms"},
            {"compiler.run.evaluate_ms_mean", "ms"},
            {"compiler.run.decode_ms_mean", "ms"},
            {"compiler.run.setup_frac", "frac"},
            {"compiler.run.ct_ct_mul_mean", "count"},
            {"compiler.run.rotations_mean", "count"},
            {"compiler.run.inplace_copies_per_run", "count"},
            {"compiler.run.mod_switch_drops", "count"},
        };
        out.insert(out.end(), rest.begin(), rest.end());
        for (const char* n : {"n1024", "n4096"}) {
            for (const char* op : {"encode", "decode", "encrypt", "decrypt",
                                   "noise_budget", "add", "mul_plain",
                                   "multiply", "rotate"}) {
                out.push_back({std::string("fhe.") + op + ".ms." + n, "ms"});
            }
            out.push_back({std::string("fhe.ntt_forward.us.") + n, "us"});
            out.push_back({std::string("fhe.ntt_inverse.us.") + n, "us"});
            out.push_back({std::string("fhe.arena_allocs_per_run.") + n,
                           "count"});
        }
        const std::vector<MetricSpec> service = {
            {"service.qwait_ms_p50", "ms"},
            {"service.qwait_ms_p99", "ms"},
            {"service.exec_ms_p50", "ms"},
            {"service.exec_ms_p99", "ms"},
            {"service.window_wait_ms_p50", "ms"},
            {"service.window_wait_ms_p99", "ms"},
            {"service.compile_cache_hit_frac", "frac"},
            {"service.run_cache_hit_frac", "frac"},
            {"service.lanes_per_row", "count"},
            {"service.composite_member_frac", "frac"},
            {"service.packed_fallback_frac", "frac"},
            {"service.load_model_err_pct", "%"},
            {"support.pool_busy_frac", "frac"},
            {"trace_overhead_frac", "frac"},
        };
        out.insert(out.end(), service.begin(), service.end());
        return out;
    }();
    return specs;
}

} // namespace chehab::perfbench
