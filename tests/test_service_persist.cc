/// \file
/// Failure-mode and warm-restart tests for the persistence tier
/// (service/persist.h). The contract under test, end to end:
///
///   - store/load round-trips reproduce the artifact bit-for-bit
///     (content bytes and disassembly), and the counters account for
///     every lookup exactly;
///   - a truncated file, a flipped byte, a wrong format version or a
///     wrong magic is *skipped and counted* — never a crash, never a
///     wrong artifact, and the service falls back to a cold compile
///     whose outputs are unchanged;
///   - concurrent writers to one cache_dir (the multi-process sharing
///     story, exercised here with threads over two PersistStore
///     instances) never tear an entry;
///   - a second service lifetime over the same cache_dir warm-starts:
///     persist hits instead of compiles, with responses bit-identical
///     to the cold run's, at 1 worker and at 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchsuite/kernels.h"
#include "compiler/driver.h"
#include "compiler/passes.h"
#include "compiler/runtime.h"
#include "compiler/serialize.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "service/compile_service.h"
#include "service/persist.h"
#include "service/service_stats.h"
#include "trs/ruleset.h"

namespace chehab::service {
namespace {

namespace fs = std::filesystem;

/// Fresh directory per test, removed on teardown.
class PersistTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("chehab_persist_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir() const { return dir_.string(); }

    fs::path dir_;
};

compiler::Compiled
makeArtifact(const std::string& source)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    return compiler::compileGreedy(ruleset, ir::parse(source));
}

CacheKey
makeKey(std::uint64_t hi, std::uint64_t lo, std::uint64_t pipeline)
{
    CacheKey key;
    key.source.hi = hi;
    key.source.lo = lo;
    key.pipeline = pipeline;
    return key;
}

/// Flip one byte in the middle of \p path (checksum must catch it).
void
flipMiddleByte(const std::string& path)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open()) << path;
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    ASSERT_GT(size, 0);
    file.seekg(size / 2);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(size / 2);
    file.write(&byte, 1);
}

TEST_F(PersistTest, StoreLoadRoundTripWithExactCounters)
{
    PersistStore store(dir());
    const CacheKey key = makeKey(0x1111, 0x2222, 7);
    const compiler::Compiled artifact = makeArtifact(
        "(+ (* a b) (* c d))");

    // Lookup before any store: a plain miss, nothing corrupt.
    EXPECT_FALSE(store.loadArtifact(key).has_value());
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().corrupt, 0u);

    ASSERT_TRUE(store.storeArtifact(key, artifact));
    EXPECT_EQ(store.stats().writes, 1u);
    ASSERT_TRUE(fs::exists(store.artifactPath(key)));

    const auto loaded = store.loadArtifact(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(compiler::serializeCompiledContent(*loaded),
              compiler::serializeCompiledContent(artifact));
    EXPECT_EQ(loaded->program.disassemble(),
              artifact.program.disassemble());
    const PersistStats stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_EQ(stats.writes, 1u);

    // A different key misses without touching the stored entry.
    EXPECT_FALSE(store.loadArtifact(makeKey(9, 9, 9)).has_value());
    EXPECT_EQ(store.stats().misses, 2u);

    // No temp-file litter from the atomic write protocol.
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir()) / "artifacts")) {
        EXPECT_EQ(entry.path().extension(), ".art")
            << entry.path().string();
    }
}

TEST_F(PersistTest, TruncatedFileIsSkippedAndCounted)
{
    PersistStore store(dir());
    const CacheKey key = makeKey(1, 2, 3);
    ASSERT_TRUE(store.storeArtifact(key, makeArtifact("(* a b)")));
    const std::string path = store.artifactPath(key);
    for (const std::uintmax_t keep :
         {std::uintmax_t{3}, fs::file_size(path) / 2,
          fs::file_size(path) - 1}) {
        fs::resize_file(path, keep);
        PersistStore reader(dir());
        EXPECT_FALSE(reader.loadArtifact(key).has_value());
        EXPECT_EQ(reader.stats().corrupt, 1u);
        EXPECT_EQ(reader.stats().misses, 1u); // Corrupt ⊆ misses.
        EXPECT_EQ(reader.stats().hits, 0u);
    }
}

TEST_F(PersistTest, FlippedByteFailsTheChecksum)
{
    PersistStore store(dir());
    const CacheKey key = makeKey(4, 5, 6);
    ASSERT_TRUE(store.storeArtifact(key, makeArtifact("(+ a b)")));
    flipMiddleByte(store.artifactPath(key));
    EXPECT_FALSE(store.loadArtifact(key).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    // Re-storing repairs the entry in place.
    ASSERT_TRUE(store.storeArtifact(key, makeArtifact("(+ a b)")));
    EXPECT_TRUE(store.loadArtifact(key).has_value());
}

TEST_F(PersistTest, WrongVersionOrMagicIsRefused)
{
    PersistStore store(dir());
    const CacheKey key = makeKey(7, 8, 9);
    ASSERT_TRUE(store.storeArtifact(key, makeArtifact("(- a b)")));
    const std::string path = store.artifactPath(key);

    // Bump the version field (bytes 4..7, little-endian u32).
    {
        std::fstream file(
            path, std::ios::in | std::ios::out | std::ios::binary);
        file.seekp(4);
        const char version = PersistStore::kFormatVersion + 1;
        file.write(&version, 1);
    }
    EXPECT_FALSE(store.loadArtifact(key).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);

    // Corrupt the magic (byte 0): same refusal, no crash.
    {
        std::fstream file(
            path, std::ios::in | std::ios::out | std::ios::binary);
        const char junk = 'X';
        file.write(&junk, 1);
    }
    EXPECT_FALSE(store.loadArtifact(key).has_value());
    EXPECT_EQ(store.stats().corrupt, 2u);
}

TEST_F(PersistTest, ConcurrentWritersToOneDirectoryNeverTear)
{
    // Two stores over one directory stand in for two processes; all
    // threads hammer the same small key set while readers poll. Every
    // successful read must decode to the one true artifact per key —
    // the atomic-rename protocol forbids observing a torn file.
    PersistStore a(dir(), /*shard_id=*/0);
    PersistStore b(dir(), /*shard_id=*/1);
    const std::vector<std::string> sources = {
        "(+ (* a b) (* c d))", "(* (+ a b) (+ c d))", "(- (* a a) b)"};
    std::vector<CacheKey> keys;
    std::vector<compiler::Compiled> artifacts;
    std::vector<std::string> expected_content;
    for (std::size_t i = 0; i < sources.size(); ++i) {
        keys.push_back(makeKey(0xabc, i, 1));
        artifacts.push_back(makeArtifact(sources[i]));
        expected_content.push_back(
            compiler::serializeCompiledContent(artifacts[i]));
    }

    std::atomic<int> bad_reads{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            PersistStore& mine = (t % 2 == 0) ? a : b;
            for (int round = 0; round < 25; ++round) {
                const std::size_t i =
                    static_cast<std::size_t>((t + round) %
                                             static_cast<int>(keys.size()));
                mine.storeArtifact(keys[i], artifacts[i]);
                const auto loaded = mine.loadArtifact(keys[i]);
                if (loaded &&
                    compiler::serializeCompiledContent(*loaded) !=
                        expected_content[i]) {
                    ++bad_reads;
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(bad_reads.load(), 0);
    // Nothing was ever counted corrupt, and every key reads back.
    EXPECT_EQ(a.stats().corrupt + b.stats().corrupt, 0u);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(a.loadArtifact(keys[i]).has_value());
    }
}

TEST_F(PersistTest, LoadModelSnapshotRoundTripsAsBootPriors)
{
    LoadModel model;
    const CacheKey compile_key = makeKey(0xfeed, 0xbeef, 2);
    BatchGroupKey group;
    group.compile = compile_key;
    group.params_hash = 77;
    group.key_budget = 4;
    model.observeCompile(compile_key, 120.0, 0.040);
    model.observeCompile(compile_key, 120.0, 0.050);
    model.observeRun(group, 60.0, 0.010, 0.002);

    PersistStore store(dir(), /*shard_id=*/3);
    ASSERT_TRUE(store.storeLoadModel(model));
    ASSERT_TRUE(fs::exists(store.loadModelPath()));

    LoadModel warm;
    PersistStore reloader(dir(), /*shard_id=*/3);
    ASSERT_TRUE(reloader.loadLoadModelInto(warm));
    const LoadModelState before = model.exportState();
    const LoadModelState after = warm.exportState();
    ASSERT_EQ(after.compile.size(), before.compile.size());
    ASSERT_EQ(after.run.size(), before.run.size());
    EXPECT_DOUBLE_EQ(after.compile[0].second.seconds_ewma,
                     before.compile[0].second.seconds_ewma);
    EXPECT_EQ(after.compile[0].second.samples,
              before.compile[0].second.samples);
    EXPECT_DOUBLE_EQ(after.run[0].second.setup_ewma,
                     before.run[0].second.setup_ewma);
    EXPECT_DOUBLE_EQ(after.compile_ratio, before.compile_ratio);
    EXPECT_EQ(after.compile_ratio_samples, before.compile_ratio_samples);
    // The prior actually informs predictions: a warm model predicts
    // the observed scale, not the cold seed.
    EXPECT_NEAR(warm.predictCompileSeconds(compile_key, 120.0),
                model.predictCompileSeconds(compile_key, 120.0), 1e-12);

    // Another shard id looks for a different file: first-boot state,
    // no corrupt counted (absence is normal, unlike artifacts).
    LoadModel other;
    PersistStore other_shard(dir(), /*shard_id=*/4);
    EXPECT_FALSE(other_shard.loadLoadModelInto(other));
    EXPECT_EQ(other_shard.stats().corrupt, 0u);

    // A corrupt snapshot is refused and counted, model untouched.
    flipMiddleByte(store.loadModelPath());
    LoadModel poisoned;
    PersistStore corrupt_reader(dir(), /*shard_id=*/3);
    EXPECT_FALSE(corrupt_reader.loadLoadModelInto(poisoned));
    EXPECT_EQ(corrupt_reader.stats().corrupt, 1u);
    EXPECT_TRUE(poisoned.exportState().compile.empty());
}

TEST_F(PersistTest, UnusableCacheDirThrowsInvalidArgument)
{
    // A regular file where the directory should be: the store
    // constructor throws, and ServiceConfig wraps it for the service.
    const std::string blocker = dir() + "/blocker";
    std::ofstream(blocker) << "not a directory";
    EXPECT_THROW(PersistStore store(blocker), std::runtime_error);

    ServiceConfig config;
    config.num_workers = 1;
    config.cache_dir = blocker;
    EXPECT_THROW(CompileService service(config), std::invalid_argument);
}

// ---- service-level warm restart -------------------------------------

std::vector<RunRequest>
suiteRequests(int distinct, int repeats)
{
    std::vector<RunRequest> requests;
    std::vector<benchsuite::Kernel> kernels = {
        benchsuite::dotProduct(4), benchsuite::l2Distance(4),
        benchsuite::polyReg(4), benchsuite::hammingDistance(4)};
    kernels.resize(static_cast<std::size_t>(distinct));
    for (int r = 0; r < repeats; ++r) {
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            RunRequest request;
            request.name = kernels[k].name + "#" + std::to_string(r);
            request.source = kernels[k].program;
            request.pipeline = compiler::DriverConfig::greedy({}, 12);
            request.params.n = 128;
            request.params.prime_count = 4;
            request.params.seed = 17;
            request.inputs =
                benchsuite::syntheticInputs(kernels[k].program);
            for (auto& [name, value] : request.inputs) {
                value += (static_cast<int>(k) + r) % 5;
            }
            requests.push_back(std::move(request));
        }
    }
    return requests;
}

bool
outputMatchesReference(const RunRequest& reference,
                       const RunResponse& response)
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

struct LifetimeResult
{
    std::vector<RunResponse> responses;
    ServiceStats stats;
};

LifetimeResult
runLifetime(const std::string& cache_dir, int workers, int distinct,
            int repeats)
{
    ServiceConfig config;
    config.num_workers = workers;
    config.cache_dir = cache_dir;
    config.max_lanes = 1;
    CompileService service(config);
    LifetimeResult result;
    std::vector<RunRequest> requests = suiteRequests(distinct, repeats);
    const std::vector<RunRequest> reference = requests;
    result.responses = service.runBatch(std::move(requests));
    service.drain();
    result.stats = service.stats();
    // Every response checked against the plaintext evaluator, and the
    // quiescent stats invariants must hold with persistence active.
    for (std::size_t i = 0; i < result.responses.size(); ++i) {
        EXPECT_TRUE(result.responses[i].ok)
            << result.responses[i].error;
        EXPECT_TRUE(outputMatchesReference(reference[i],
                                           result.responses[i]))
            << result.responses[i].name;
    }
    EXPECT_EQ(checkStatsInvariants(result.stats, /*quiescent=*/true),
              std::string());
    return result;
}

void
expectBitIdentical(const LifetimeResult& cold,
                   const LifetimeResult& warm)
{
    ASSERT_EQ(cold.responses.size(), warm.responses.size());
    for (std::size_t i = 0; i < cold.responses.size(); ++i) {
        EXPECT_EQ(cold.responses[i].name, warm.responses[i].name);
        EXPECT_EQ(cold.responses[i].result.output,
                  warm.responses[i].result.output)
            << cold.responses[i].name;
        EXPECT_EQ(cold.responses[i].compiled.program.disassemble(),
                  warm.responses[i].compiled.program.disassemble())
            << cold.responses[i].name;
        EXPECT_EQ(compiler::serializeCompiledContent(
                      cold.responses[i].compiled),
                  compiler::serializeCompiledContent(
                      warm.responses[i].compiled))
            << cold.responses[i].name;
    }
}

class PersistServiceTest : public PersistTest,
                           public ::testing::WithParamInterface<int>
{};

TEST_P(PersistServiceTest, WarmRestartIsBitIdenticalToColdRun)
{
    const int workers = GetParam();
    const int distinct = 4;
    const int repeats = 3;

    const LifetimeResult cold =
        runLifetime(dir(), workers, distinct, repeats);
    EXPECT_EQ(cold.stats.persist.hits, 0u);
    EXPECT_EQ(cold.stats.compiled,
              static_cast<std::uint64_t>(distinct));
    EXPECT_GE(cold.stats.persist.writes,
              static_cast<std::uint64_t>(distinct));

    const LifetimeResult warm =
        runLifetime(dir(), workers, distinct, repeats);
    EXPECT_EQ(warm.stats.compiled, 0u); // Every miss loaded from disk.
    EXPECT_EQ(warm.stats.persist.hits,
              static_cast<std::uint64_t>(distinct));
    EXPECT_EQ(warm.stats.persist.corrupt, 0u);

    expectBitIdentical(cold, warm);
}

INSTANTIATE_TEST_SUITE_P(Workers, PersistServiceTest,
                         ::testing::Values(1, 8));

TEST_F(PersistTest, CorruptedStoreFallsBackToColdCompiles)
{
    const LifetimeResult cold = runLifetime(dir(), 2, 3, 2);
    ASSERT_GT(cold.stats.persist.writes, 0u);

    // Flip a byte in *every* stored artifact.
    int corrupted = 0;
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir()) / "artifacts")) {
        flipMiddleByte(entry.path().string());
        ++corrupted;
    }
    ASSERT_GT(corrupted, 0);

    // The next lifetime must cold-start: no hits, every corrupt entry
    // counted, every output still correct (runLifetime checks the
    // evaluator and the invariants internally).
    const LifetimeResult fallback = runLifetime(dir(), 2, 3, 2);
    EXPECT_EQ(fallback.stats.persist.hits, 0u);
    EXPECT_EQ(fallback.stats.persist.corrupt,
              static_cast<std::uint64_t>(corrupted));
    EXPECT_EQ(fallback.stats.compiled, 3u);
    expectBitIdentical(cold, fallback);
}

TEST_F(PersistTest, ArtifactMissingARotationKeyFailsTyped)
{
    // A checksum-valid stored artifact whose key plan names no key for
    // one of its rotations (stale or tampered) used to abort the whole
    // process on its first run. Now that run fails with a typed error,
    // the service stays up, and the next good request succeeds.
    const benchsuite::Kernel blur = benchsuite::boxBlur(3);
    const compiler::DriverConfig pipeline =
        compiler::DriverConfig::greedy({}, 12);
    const ir::ExprPtr canonical = compiler::canonicalize(blur.program);
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    compiler::Compiled tampered =
        compiler::CompilerDriver(&ruleset).compile(canonical, pipeline);
    ASSERT_FALSE(tampered.program.rotationSteps().empty());
    tampered.key_plan = compiler::effectiveKeyPlan(tampered.program, 0);
    const int dropped = tampered.key_plan.keys.back();
    tampered.key_plan.keys.pop_back();
    tampered.key_planned = true;
    ASSERT_TRUE(PersistStore(dir()).storeArtifact(
        makeCacheKey(canonical, pipeline), tampered));

    ServiceConfig config;
    config.num_workers = 2;
    config.cache_dir = dir();
    config.max_lanes = 1;
    CompileService service(config);

    const auto request = [&](const benchsuite::Kernel& kernel) {
        RunRequest run;
        run.name = kernel.name;
        run.source = kernel.program;
        run.pipeline = pipeline;
        run.params.n = 128;
        run.params.prime_count = 4;
        run.params.seed = 17;
        run.inputs = benchsuite::syntheticInputs(kernel.program);
        return run;
    };
    const RunResponse bad = service.submitRun(request(blur)).get();
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("no Galois key for component " +
                             std::to_string(dropped)),
              std::string::npos)
        << bad.error;

    const RunRequest good_request = request(benchsuite::dotProduct(4));
    const RunResponse good = service.submitRun(good_request).get();
    EXPECT_TRUE(good.ok) << good.error;
    EXPECT_TRUE(outputMatchesReference(good_request, good));

    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.persist.hits, 1u);
    EXPECT_EQ(stats.run_failed, 1u);
    EXPECT_EQ(checkStatsInvariants(stats, /*quiescent=*/true),
              std::string());
}

TEST_F(PersistTest, ArtifactWithZeroWidthReplicatedPackFailsTyped)
{
    // A checksum-valid stored artifact can hold a replicated pack with
    // no slots, whose period-w row fill would divide by zero. Its run
    // must fail with a typed error, the service must stay up, and the
    // next request must succeed.
    const benchsuite::Kernel blur = benchsuite::boxBlur(3);
    const compiler::DriverConfig pipeline =
        compiler::DriverConfig::greedy({}, 12);
    const ir::ExprPtr canonical = compiler::canonicalize(blur.program);
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    compiler::Compiled tampered =
        compiler::CompilerDriver(&ruleset).compile(canonical, pipeline);
    auto pack = std::find_if(
        tampered.program.instrs.begin(), tampered.program.instrs.end(),
        [](const compiler::FheInstr& instr) {
            return instr.op == compiler::FheOpcode::PackCipher;
        });
    ASSERT_NE(pack, tampered.program.instrs.end());
    pack->replicate = true;
    pack->slots.clear();
    ASSERT_TRUE(PersistStore(dir()).storeArtifact(
        makeCacheKey(canonical, pipeline), tampered));

    ServiceConfig config;
    config.num_workers = 2;
    config.cache_dir = dir();
    config.max_lanes = 1;
    CompileService service(config);

    const auto request = [&](const benchsuite::Kernel& kernel) {
        RunRequest run;
        run.name = kernel.name;
        run.source = kernel.program;
        run.pipeline = pipeline;
        run.params.n = 128;
        run.params.prime_count = 4;
        run.params.seed = 17;
        run.inputs = benchsuite::syntheticInputs(kernel.program);
        return run;
    };
    const RunResponse bad = service.submitRun(request(blur)).get();
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("replicated pack has no slots"),
              std::string::npos)
        << bad.error;

    const RunRequest good_request = request(benchsuite::dotProduct(4));
    const RunResponse good = service.submitRun(good_request).get();
    EXPECT_TRUE(good.ok) << good.error;
    EXPECT_TRUE(outputMatchesReference(good_request, good));

    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.persist.hits, 1u);
    EXPECT_EQ(stats.run_failed, 1u);
    EXPECT_EQ(checkStatsInvariants(stats, /*quiescent=*/true),
              std::string());
}

TEST_F(PersistTest, ArtifactWithUndefinedRegisterFailsTyped)
{
    // A checksum-valid stored artifact can read a register no
    // instruction defines. Its run must fail with a typed error instead
    // of consuming an empty register slot, the service must stay up,
    // and the next request must succeed.
    const benchsuite::Kernel blur = benchsuite::boxBlur(3);
    const compiler::DriverConfig pipeline =
        compiler::DriverConfig::greedy({}, 12);
    const ir::ExprPtr canonical = compiler::canonicalize(blur.program);
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    compiler::Compiled tampered =
        compiler::CompilerDriver(&ruleset).compile(canonical, pipeline);
    auto op = std::find_if(
        tampered.program.instrs.begin(), tampered.program.instrs.end(),
        [](const compiler::FheInstr& instr) {
            return instr.op != compiler::FheOpcode::PackCipher &&
                   instr.op != compiler::FheOpcode::PackPlain;
        });
    ASSERT_NE(op, tampered.program.instrs.end());
    op->a = tampered.program.num_regs;
    ASSERT_TRUE(PersistStore(dir()).storeArtifact(
        makeCacheKey(canonical, pipeline), tampered));

    ServiceConfig config;
    config.num_workers = 2;
    config.cache_dir = dir();
    config.max_lanes = 1;
    CompileService service(config);

    const auto request = [&](const benchsuite::Kernel& kernel) {
        RunRequest run;
        run.name = kernel.name;
        run.source = kernel.program;
        run.pipeline = pipeline;
        run.params.n = 128;
        run.params.prime_count = 4;
        run.params.seed = 17;
        run.inputs = benchsuite::syntheticInputs(kernel.program);
        return run;
    };
    const RunResponse bad = service.submitRun(request(blur)).get();
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("reads undefined ciphertext"),
              std::string::npos)
        << bad.error;

    const RunRequest good_request = request(benchsuite::dotProduct(4));
    const RunResponse good = service.submitRun(good_request).get();
    EXPECT_TRUE(good.ok) << good.error;
    EXPECT_TRUE(outputMatchesReference(good_request, good));

    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.persist.hits, 1u);
    EXPECT_EQ(stats.run_failed, 1u);
    EXPECT_EQ(checkStatsInvariants(stats, /*quiescent=*/true),
              std::string());
}

} // namespace
} // namespace chehab::service
