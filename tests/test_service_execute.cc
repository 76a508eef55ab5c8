/// \file
/// Tests for the service's execute path: compile-then-run correctness
/// against the reference evaluator, FheRuntime pooling determinism
/// (identical outputs *and noise accounting* at 1 vs 8 workers),
/// key-budget decomposed-rotation correctness under the pool, run-cache
/// single-flight accounting, and LRU eviction bounds on both caches.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "benchsuite/kernels.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "service/compile_service.h"

namespace chehab::service {
namespace {

fhe::SealLiteParams
smallParams()
{
    fhe::SealLiteParams params;
    params.n = 256;
    params.prime_count = 4;
    params.seed = 17;
    return params;
}

/// Deterministic inputs: the shared benchsuite generator, so tests,
/// chehabd --run and the execute benches agree on values.
ir::Env
inputsFor(const ir::ExprPtr& program)
{
    return benchsuite::syntheticInputs(program);
}

RunRequest
runRequest(const std::string& name, const std::string& source,
           int max_steps = 20, int key_budget = 0)
{
    RunRequest request;
    request.name = name;
    request.source = ir::parse(source);
    request.pipeline = compiler::DriverConfig::greedy({}, max_steps);
    request.inputs = inputsFor(request.source);
    request.key_budget = key_budget;
    request.params = smallParams();
    return request;
}

std::string
dotSource(int n, const std::string& prefix = "")
{
    std::string sum;
    for (int i = 0; i < n; ++i) {
        const std::string a = prefix + "a" + std::to_string(i);
        const std::string b = prefix + "b" + std::to_string(i);
        const std::string term = "(* " + a + " " + b + ")";
        sum = i == 0 ? term : "(+ " + sum + " " + term + ")";
    }
    return sum;
}

void
expectMatchesReference(const RunResponse& response,
                       const ir::ExprPtr& source, const ir::Env& env)
{
    ASSERT_TRUE(response.ok) << response.name << ": " << response.error;
    const ir::Value expected = ir::Evaluator().evaluate(source, env);
    if (expected.is_vector) {
        ASSERT_EQ(static_cast<int>(response.result.output.size()),
                  expected.width())
            << response.name;
        for (std::size_t i = 0; i < response.result.output.size(); ++i) {
            EXPECT_EQ(response.result.output[i], expected.slots[i])
                << response.name << " slot " << i;
        }
    } else {
        // Scalar sources may be vectorized by the TRS (rotate-reduce);
        // slot 0 carries the semantic result either way.
        ASSERT_FALSE(response.result.output.empty()) << response.name;
        EXPECT_EQ(response.result.output[0], expected.slots[0])
            << response.name;
    }
    EXPECT_GT(response.result.final_noise_budget, 0) << response.name;
}

TEST(ServiceExecuteTest, RunProducesReferenceOutput)
{
    CompileService service({/*num_workers=*/2});
    RunRequest request = runRequest("dot", dotSource(4));
    const ir::ExprPtr source = request.source;
    const ir::Env env = request.inputs;
    std::vector<RunResponse> responses =
        service.runBatch({std::move(request)});
    ASSERT_EQ(responses.size(), 1u);
    expectMatchesReference(responses[0], source, env);
    EXPECT_FALSE(responses[0].run_cache_hit);
    EXPECT_GE(responses[0].worker_id, 0);
    EXPECT_GT(responses[0].result.consumed_noise, 0);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.run_submitted, 1u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.compiled, 1u);
    EXPECT_GE(stats.runtimes_created, 1u);
}

TEST(ServiceExecuteTest, DeterministicAcrossWorkerCounts)
{
    // The satellite acceptance test: the same request batch must yield
    // bit-identical outputs AND noise accounting at 1 and 8 workers,
    // even though pooled runtimes are reused in a scheduling-dependent
    // order.
    const std::vector<std::string> sources = {
        dotSource(4),
        dotSource(3, "z"),
        "(VecAdd (VecMul (Vec x y) (Vec u v)) (Vec p q))",
        "(<< (Vec a b c d e) 2)",
        dotSource(5, "k"),
    };

    struct Snapshot
    {
        std::vector<std::int64_t> output;
        int fresh = 0;
        int final_budget = 0;
        int consumed = 0;
        int keys = 0;
    };

    auto runAll = [&sources](int workers) {
        std::vector<RunRequest> batch;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            batch.push_back(
                runRequest("k" + std::to_string(i), sources[i]));
        }
        // Duplicates sprinkled in so cache-served runs are compared too.
        batch.push_back(runRequest("k0dup", sources[0]));
        batch.push_back(runRequest("k3dup", sources[3]));
        std::map<std::string, Snapshot> by_name;
        for (RunResponse& response :
             CompileService({workers}).runBatch(std::move(batch))) {
            EXPECT_TRUE(response.ok)
                << response.name << ": " << response.error;
            Snapshot snap;
            snap.output = response.result.output;
            snap.fresh = response.result.fresh_noise_budget;
            snap.final_budget = response.result.final_noise_budget;
            snap.consumed = response.result.consumed_noise;
            snap.keys = response.result.rotation_keys;
            by_name[response.name] = snap;
        }
        return by_name;
    };

    const auto serial = runAll(1);
    const auto wide = runAll(8);
    ASSERT_EQ(serial.size(), wide.size());
    for (const auto& [name, snap] : serial) {
        ASSERT_TRUE(wide.count(name)) << name;
        const Snapshot& other = wide.at(name);
        EXPECT_EQ(snap.output, other.output) << name;
        EXPECT_EQ(snap.fresh, other.fresh) << name;
        EXPECT_EQ(snap.final_budget, other.final_budget) << name;
        EXPECT_EQ(snap.consumed, other.consumed) << name;
        EXPECT_EQ(snap.keys, other.keys) << name;
        EXPECT_FALSE(snap.output.empty()) << name;
    }
    // Duplicates resolve to the same result as their originals.
    EXPECT_EQ(serial.at("k0").output, serial.at("k0dup").output);
    EXPECT_EQ(serial.at("k3").output, serial.at("k3dup").output);
}

TEST(ServiceExecuteTest, DeterministicAcrossWorkerCountsWithModSwitch)
{
    // Same 1-vs-8 contract with the mod-switch pass in the pipeline:
    // the noise gate decides drops from (program, plan, params) alone,
    // so outputs, budgets AND the drop count must be bit-identical no
    // matter which pooled runtime each request lands on.
    const std::vector<std::string> sources = {
        dotSource(4),
        dotSource(3, "z"),
        "(VecAdd (VecMul (Vec x y) (Vec u v)) (Vec p q))",
        dotSource(5, "k"),
    };

    struct Snapshot
    {
        std::vector<std::int64_t> output;
        int final_budget = 0;
        int drops = 0;
    };

    auto runAll = [&sources](int workers) {
        std::vector<RunRequest> batch;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            RunRequest request =
                runRequest("k" + std::to_string(i), sources[i]);
            request.pipeline.passes.push_back("mod-switch");
            batch.push_back(std::move(request));
        }
        std::map<std::string, Snapshot> by_name;
        for (RunResponse& response :
             CompileService({workers}).runBatch(std::move(batch))) {
            EXPECT_TRUE(response.ok)
                << response.name << ": " << response.error;
            by_name[response.name] = {response.result.output,
                                      response.result.final_noise_budget,
                                      response.result.mod_switch_drops};
        }
        return by_name;
    };

    const auto serial = runAll(1);
    const auto wide = runAll(8);
    ASSERT_EQ(serial.size(), wide.size());
    int total_drops = 0;
    for (const auto& [name, snap] : serial) {
        ASSERT_TRUE(wide.count(name)) << name;
        const Snapshot& other = wide.at(name);
        EXPECT_EQ(snap.output, other.output) << name;
        EXPECT_EQ(snap.final_budget, other.final_budget) << name;
        EXPECT_EQ(snap.drops, other.drops) << name;
        EXPECT_GT(snap.final_budget, 0) << name;
        total_drops += snap.drops;
    }
    // The suite is chosen so the gate actually fires somewhere —
    // otherwise this test degenerates into the plain variant.
    EXPECT_GT(total_drops, 0);

    // And against the reference semantics: drops never change decoded
    // outputs relative to the no-mod-switch pipeline.
    std::vector<RunRequest> plain;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        plain.push_back(runRequest("k" + std::to_string(i), sources[i]));
    }
    for (RunResponse& response :
         CompileService({2}).runBatch(std::move(plain))) {
        ASSERT_TRUE(response.ok) << response.error;
        EXPECT_EQ(response.result.mod_switch_drops, 0);
        EXPECT_EQ(response.result.output,
                  serial.at(response.name).output)
            << response.name;
    }
}

TEST(ServiceExecuteTest, KeyBudgetDecomposedRotationsCorrectUnderPool)
{
    // Rotations by 3 and 5 decompose under a tight key budget; the
    // decomposed sequences must still be correct when executed on
    // pooled runtimes by many workers at once.
    const std::string source =
        "(VecAdd (<< (Vec a b c d e f g h) 3)"
        "        (<< (Vec a b c d e f g h) 5))";
    CompileService service({/*num_workers=*/8});
    std::vector<RunRequest> batch;
    for (int i = 0; i < 6; ++i) {
        batch.push_back(runRequest("r" + std::to_string(i), source,
                                   /*max_steps=*/5, /*key_budget=*/3));
    }
    const ir::ExprPtr parsed = ir::parse(source);
    const ir::Env env = inputsFor(parsed);
    std::vector<RunResponse> responses =
        service.runBatch(std::move(batch));
    for (const RunResponse& response : responses) {
        expectMatchesReference(response, parsed, env);
        EXPECT_LE(response.result.rotation_keys, 3) << response.name;
    }
    // Identical requests executed once (single-flight run dedup).
    EXPECT_EQ(service.stats().executed, 1u);
}

TEST(ServiceExecuteTest, KeySelectPipelinePlanWins)
{
    // A pipeline with the key-select pass carries its plan into
    // execution; the request-level budget is ignored.
    const std::string source =
        "(VecAdd (<< (Vec a b c d e f g h) 3)"
        "        (<< (Vec a b c d e f g h) 5))";
    RunRequest request = runRequest("planned", source, /*max_steps=*/5);
    request.pipeline.passes.push_back("key-select");
    request.pipeline.key_budget = 3;
    request.key_budget = 0; // Would mean one key per step if honored.
    const ir::ExprPtr parsed = ir::parse(source);
    const ir::Env env = request.inputs;

    CompileService service({/*num_workers=*/2});
    std::vector<RunResponse> responses =
        service.runBatch({std::move(request)});
    ASSERT_EQ(responses.size(), 1u);
    expectMatchesReference(responses[0], parsed, env);
    EXPECT_TRUE(responses[0].compiled.key_planned);
    EXPECT_LE(responses[0].result.rotation_keys, 3);
}

TEST(ServiceExecuteTest, RunCacheHitOnRepeat)
{
    CompileService service({/*num_workers=*/2});
    RunRequest request = runRequest("dot", dotSource(4));
    std::vector<RunResponse> first = service.runBatch({request});
    ASSERT_TRUE(first[0].ok) << first[0].error;
    std::vector<RunResponse> second = service.runBatch({request});
    ASSERT_TRUE(second[0].ok) << second[0].error;
    EXPECT_TRUE(second[0].run_cache_hit);
    EXPECT_TRUE(second[0].compile_cache_hit);
    EXPECT_EQ(second[0].result.output, first[0].result.output);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.compiled, 1u);
    EXPECT_EQ(stats.run_cache.hits, 1u);
}

TEST(ServiceExecuteTest, DifferentInputsAreDistinctRuns)
{
    CompileService service({/*num_workers=*/2});
    RunRequest base = runRequest("a", dotSource(3));
    RunRequest changed = base;
    changed.name = "b";
    changed.inputs.begin()->second += 1;
    std::vector<RunResponse> responses =
        service.runBatch({base, changed});
    ASSERT_TRUE(responses[0].ok);
    ASSERT_TRUE(responses[1].ok);
    EXPECT_NE(responses[0].result.output, responses[1].result.output);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.executed, 2u); // Two runs...
    EXPECT_EQ(stats.compiled, 1u); // ...sharing one compile.
}

TEST(ServiceExecuteTest, CompileSharedBetweenCompileAndRunPaths)
{
    CompileService service({/*num_workers=*/2});
    CompileRequest compile_request;
    compile_request.name = "c";
    compile_request.source = ir::parse(dotSource(4));
    compile_request.pipeline = compiler::DriverConfig::greedy({}, 20);
    std::vector<CompileResponse> compiled =
        service.compileBatch({std::move(compile_request)});
    ASSERT_TRUE(compiled[0].ok) << compiled[0].error;

    std::vector<RunResponse> runs =
        service.runBatch({runRequest("r", dotSource(4))});
    ASSERT_TRUE(runs[0].ok) << runs[0].error;
    EXPECT_TRUE(runs[0].compile_cache_hit);
    EXPECT_EQ(service.stats().compiled, 1u);
    EXPECT_EQ(runs[0].compiled.program.disassemble(),
              compiled[0].compiled.program.disassemble());
}

TEST(ServiceExecuteTest, CompileFailurePropagatesToRun)
{
    CompileService service({/*num_workers=*/1});
    RunRequest request = runRequest("rl", dotSource(3));
    request.pipeline = compiler::DriverConfig::rl();
    std::vector<RunResponse> responses =
        service.runBatch({std::move(request)});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_FALSE(responses[0].ok);
    EXPECT_NE(responses[0].error.find("RL agent"), std::string::npos);
    EXPECT_EQ(service.stats().run_failed, 1u);
}

TEST(ServiceExecuteTest, MissingInputFailsGracefully)
{
    CompileService service({/*num_workers=*/2});
    RunRequest request = runRequest("missing", dotSource(3));
    request.inputs.erase("a0");
    std::vector<RunResponse> responses =
        service.runBatch({std::move(request)});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_FALSE(responses[0].ok);
    EXPECT_NE(responses[0].error.find("a0"), std::string::npos);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.run_failed, 1u);
    EXPECT_EQ(stats.compiled, 1u); // The compile itself succeeded.
}

TEST(ServiceExecuteTest, NullSourceRejectedOnSubmitRun)
{
    CompileService service({/*num_workers=*/1});
    RunRequest request;
    request.name = "null";
    std::vector<RunResponse> responses =
        service.runBatch({std::move(request)});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_FALSE(responses[0].ok);
    EXPECT_FALSE(responses[0].error.empty());
}

TEST(ServiceExecuteTest, InvalidParamsRejectedThenServiceStillServes)
{
    // n = 1000 and t = 65539 used to reach an assert in the SealLite
    // constructor and abort the process; they must resolve as errors
    // without building a runtime, and the service must keep serving.
    CompileService service({/*num_workers=*/2});
    RunRequest bad_n = runRequest("bad_n", dotSource(3));
    bad_n.params.n = 1000;
    RunRequest bad_t = runRequest("bad_t", dotSource(3));
    bad_t.params.plain_modulus = 65539;
    RunRequest wide = runRequest("wide", dotSource(3));
    wide.params.prime_count = fhe::SealLiteParams::kMaxPrimeCount + 1;
    for (const RunRequest& bad : {bad_n, bad_t, wide}) {
        const RunResponse response = service.runBatch({bad})[0];
        EXPECT_FALSE(response.ok) << response.name;
        EXPECT_EQ(response.error.rfind("SealLiteParams: ", 0), 0u)
            << response.error;
    }
    EXPECT_EQ(service.stats().runtimes_created, 0u);
    EXPECT_EQ(service.stats().run_submitted, 0u);

    RunRequest good = runRequest("good", dotSource(3));
    const ir::ExprPtr source = good.source;
    const ir::Env env = good.inputs;
    const std::vector<RunResponse> responses =
        service.runBatch({std::move(good)});
    expectMatchesReference(responses[0], source, env);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.run_submitted, 1u);
    EXPECT_EQ(stats.runtimes_created, 1u);
    EXPECT_EQ(checkStatsInvariants(stats, /*quiescent=*/true), "");
}

// ---- LRU bounding ---------------------------------------------------

TEST(ServiceExecuteTest, CompileCacheLruEviction)
{
    ServiceConfig config;
    config.num_workers = 2;
    config.kernel_cache_capacity = 2;
    CompileService service(config);

    auto compileOne = [&service](const std::string& name,
                                 const std::string& source) {
        CompileRequest request;
        request.name = name;
        request.source = ir::parse(source);
        request.pipeline = compiler::DriverConfig::greedy({}, 10);
        std::vector<CompileResponse> responses =
            service.compileBatch({std::move(request)});
        ASSERT_TRUE(responses[0].ok) << responses[0].error;
    };

    compileOne("a", dotSource(3));
    compileOne("b", dotSource(3, "y"));
    compileOne("c", dotSource(3, "z")); // Evicts the LRU entry ("a").

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.evictions, 1u);
    EXPECT_LE(stats.cache.resident, 2u);
    EXPECT_EQ(stats.compiled, 3u);

    // Re-requesting the evicted kernel is a miss and recompiles.
    compileOne("a2", dotSource(3));
    stats = service.stats();
    EXPECT_EQ(stats.compiled, 4u);
    EXPECT_EQ(stats.cache.evictions, 2u);
    EXPECT_LE(stats.cache.resident, 2u);

    // A still-resident kernel is a hit, not a recompile.
    compileOne("c2", dotSource(3, "z"));
    stats = service.stats();
    EXPECT_EQ(stats.compiled, 4u);
    EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(ServiceExecuteTest, RunCacheIsBoundedByDefault)
{
    // Every run with fresh inputs settles one entry, so a long-lived
    // service with an unbounded default would grow with every request
    // it serves. 0 still means unbounded when asked for.
    const ServiceConfig config;
    EXPECT_EQ(config.run_cache_capacity, kDefaultRunCacheCapacity);
    EXPECT_GT(config.run_cache_capacity, 0u);
}

TEST(ServiceExecuteTest, KernelCacheIsBoundedByDefault)
{
    // Every distinct program compiled settles one artifact, so a
    // long-lived service with an unbounded default would grow with
    // every new program it sees. 0 still means unbounded when asked for.
    const ServiceConfig config;
    EXPECT_EQ(config.kernel_cache_capacity, kDefaultKernelCacheCapacity);
    EXPECT_GT(config.kernel_cache_capacity, 0u);
}

TEST(ServiceExecuteTest, RunCacheLruEviction)
{
    ServiceConfig config;
    config.num_workers = 2;
    config.run_cache_capacity = 1;
    CompileService service(config);

    RunRequest a = runRequest("a", dotSource(3));
    RunRequest b = runRequest("b", dotSource(3, "y"));
    ASSERT_TRUE(service.runBatch({a})[0].ok);
    ASSERT_TRUE(service.runBatch({b})[0].ok); // Evicts a's run entry.

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.run_cache.evictions, 1u);
    EXPECT_LE(stats.run_cache.resident, 1u);

    // Re-running "a" re-executes (its run entry is gone) but reuses the
    // still-cached compile.
    std::vector<RunResponse> again = service.runBatch({a});
    ASSERT_TRUE(again[0].ok);
    EXPECT_FALSE(again[0].run_cache_hit);
    EXPECT_TRUE(again[0].compile_cache_hit);
    stats = service.stats();
    EXPECT_EQ(stats.executed, 3u);
    EXPECT_EQ(stats.compiled, 2u);
}

TEST(ServiceExecuteTest, RunCacheHitSurvivesCompileEviction)
{
    // A run-cache hit must not touch the kernel cache: when the compile
    // entry was LRU-evicted after the run settled, re-serving the run
    // from its cache must not schedule a recompile nothing consumes.
    ServiceConfig config;
    config.num_workers = 2;
    config.kernel_cache_capacity = 1;
    CompileService service(config);

    RunRequest a = runRequest("a", dotSource(3));
    RunRequest b = runRequest("b", dotSource(3, "y"));
    ASSERT_TRUE(service.runBatch({a})[0].ok);
    ASSERT_TRUE(service.runBatch({b})[0].ok); // Evicts a's compile entry.
    ASSERT_EQ(service.stats().cache.evictions, 1u);

    std::vector<RunResponse> again = service.runBatch({a});
    ASSERT_TRUE(again[0].ok);
    EXPECT_TRUE(again[0].run_cache_hit);
    EXPECT_TRUE(again[0].compile_cache_hit); // Mirrors run provenance.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.compiled, 2u);  // No dead recompile of "a".
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.cache.misses, 2u);
}

TEST(ServiceExecuteTest, PendingEntriesAreNotEvicted)
{
    // Capacity 1 with a burst of distinct in-flight kernels: the cache
    // may transiently exceed its bound (pending entries are protected),
    // then settles back under it as eviction catches up on later
    // admissions. All responses must be correct.
    ServiceConfig config;
    config.num_workers = 4;
    config.kernel_cache_capacity = 1;
    CompileService service(config);
    std::vector<RunRequest> batch;
    for (int i = 0; i < 6; ++i) {
        batch.push_back(runRequest("k" + std::to_string(i),
                                   dotSource(3, "v" + std::to_string(i))));
    }
    std::vector<RunResponse> responses =
        service.runBatch(std::move(batch));
    for (const RunResponse& response : responses) {
        EXPECT_TRUE(response.ok)
            << response.name << ": " << response.error;
    }
}

} // namespace
} // namespace chehab::service
