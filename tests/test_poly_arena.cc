/// \file
/// PolyArena semantics and the arena/in-place determinism contract:
/// acquire/release/reuse accounting, best-fit selection, the
/// zero-steady-state guarantee after one priming pass, an 8-thread
/// acquire/release stress (the TSan job runs this file), and
/// bit-identity differentials — arena on vs off and in-place vs copying
/// evaluation — at 1 and 8 workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "benchsuite/kernels.h"
#include "compiler/pipeline.h"
#include "compiler/runtime.h"
#include "fhe/poly_arena.h"
#include "fhe/sealite.h"

namespace chehab {
namespace {

// -- PolyArena unit semantics ------------------------------------------

TEST(PolyArenaTest, AcquireReleaseReuse)
{
    fhe::PolyArena arena;
    auto buffer = arena.acquire(256);
    EXPECT_EQ(buffer.size(), 256u);
    EXPECT_EQ(arena.stats().allocs, 1u);
    EXPECT_EQ(arena.stats().reuses, 0u);
    EXPECT_EQ(arena.stats().bytes, 256u * 4u);

    arena.release(std::move(buffer));
    auto again = arena.acquire(256);
    EXPECT_EQ(arena.stats().allocs, 1u);
    EXPECT_EQ(arena.stats().reuses, 1u);

    // A smaller request reuses (and shrinks) a pooled buffer too.
    arena.release(std::move(again));
    auto smaller = arena.acquire(64);
    EXPECT_EQ(smaller.size(), 64u);
    EXPECT_EQ(arena.stats().allocs, 1u);
    EXPECT_EQ(arena.stats().reuses, 2u);
}

TEST(PolyArenaTest, BestFitKeepsLargeBuffersForLargeRequests)
{
    fhe::PolyArena arena;
    auto large = arena.acquire(4096);
    auto small = arena.acquire(64);
    arena.release(std::move(large));
    arena.release(std::move(small));

    // The small request must take the 64-word buffer, leaving the
    // 4096-word one for the large request: first-fit here would force
    // the second acquire to mint.
    auto a = arena.acquire(64);
    auto b = arena.acquire(4096);
    EXPECT_EQ(arena.stats().allocs, 2u);
    EXPECT_EQ(arena.stats().reuses, 2u);
    EXPECT_GE(b.capacity(), 4096u);
}

TEST(PolyArenaTest, AcquireZeroedClearsRecycledContents)
{
    fhe::PolyArena arena;
    auto buffer = arena.acquire(32);
    for (auto& w : buffer) w = ~0U;
    arena.release(std::move(buffer));
    const auto zeroed = arena.acquireZeroed(32);
    EXPECT_EQ(arena.stats().reuses, 1u);
    for (const std::uint32_t w : zeroed) EXPECT_EQ(w, 0u);
}

TEST(PolyArenaTest, DisabledArenaAlwaysMints)
{
    fhe::PolyArena arena;
    arena.setEnabled(false);
    EXPECT_FALSE(arena.enabled());
    auto buffer = arena.acquire(128);
    arena.release(std::move(buffer));
    auto again = arena.acquire(128);
    EXPECT_EQ(arena.stats().allocs, 2u);
    EXPECT_EQ(arena.stats().reuses, 0u);
    (void)again;
}

TEST(PolyArenaTest, EightThreadAcquireReleaseStress)
{
    // One shared arena hammered from 8 workers with mixed sizes: the
    // TSan leg runs this to pin the locking discipline; the accounting
    // identity (every acquire is exactly one alloc or one reuse) must
    // hold regardless of interleaving.
    fhe::PolyArena arena;
    constexpr int kWorkers = 8;
    constexpr int kIters = 400;
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&arena, t] {
            const std::size_t sizes[] = {32, 64, 1024, 4096};
            for (int i = 0; i < kIters; ++i) {
                const std::size_t words =
                    sizes[static_cast<std::size_t>(i + t) % 4];
                auto buffer = arena.acquire(words);
                buffer[0] = static_cast<std::uint32_t>(t);
                buffer[words - 1] = static_cast<std::uint32_t>(i);
                arena.release(std::move(buffer));
            }
        });
    }
    for (auto& worker : workers) worker.join();
    const fhe::PolyArena::Stats stats = arena.stats();
    EXPECT_EQ(stats.allocs + stats.reuses,
              static_cast<std::uint64_t>(kWorkers) * kIters);
    EXPECT_GT(stats.reuses, 0u);
}

// -- zero-steady-state through the scheme ------------------------------

TEST(PolyArenaTest, SchemeReachesZeroAllocsAfterPriming)
{
    fhe::SealLite scheme;
    scheme.makeGaloisKeys({1});
    const fhe::Plaintext plain = scheme.encode({1, 2, 3, 4});
    const fhe::Ciphertext ct = scheme.encrypt(plain);

    // Every op that draws on the arena: multiply (tensor scratch and
    // key switch), rotate (automorphism and key switch), mulPlain,
    // encode, encrypt/decrypt (phase and decode buffers) and a
    // mod-switch drop.
    const auto pass = [&] {
        scheme.recycle(scheme.multiply(ct, ct));
        scheme.recycle(scheme.rotate(ct, 1));
        scheme.recycle(scheme.mulPlain(ct, plain));
        fhe::Ciphertext fresh = scheme.encrypt(scheme.encode({5, 6}));
        EXPECT_EQ(scheme.decrypt(fresh)[1], 6);
        scheme.modSwitchTo(fresh, scheme.levels() - 1);
        scheme.recycle(std::move(fresh));
    };
    // Priming pass: the first round mints every size class it needs.
    pass();
    const fhe::PolyArena::Stats primed = scheme.arenaStats();
    for (int i = 0; i < 8; ++i) pass();
    const fhe::PolyArena::Stats steady = scheme.arenaStats();
    EXPECT_EQ(steady.allocs, primed.allocs)
        << "steady-state evaluation minted fresh buffers";
    EXPECT_GT(steady.reuses, primed.reuses);
}

// -- determinism contract differentials --------------------------------

compiler::RunResult
runKernel(compiler::FheRuntime& runtime, const benchsuite::Kernel& kernel)
{
    const compiler::Compiled compiled =
        compiler::compileNoOpt(kernel.program);
    return runtime.run(compiled.program,
                       benchsuite::syntheticInputs(kernel.program));
}

TEST(ArenaDifferentialTest, ArenaOnOffBitIdentical)
{
    const benchsuite::Kernel kernel = benchsuite::l2Distance(4);
    compiler::FheRuntime with_arena;
    compiler::FheRuntime without_arena;
    without_arena.scheme().setArenaEnabled(false);
    const compiler::RunResult on = runKernel(with_arena, kernel);
    const compiler::RunResult off = runKernel(without_arena, kernel);
    EXPECT_EQ(on.output, off.output);
    EXPECT_EQ(on.final_noise_budget, off.final_noise_budget);
}

TEST(ArenaDifferentialTest, InPlaceVsCopyingBitIdentical)
{
    // Two identically seeded runtimes: the encryption randomness
    // streams match, so any bit difference is the evaluator's fault.
    const benchsuite::Kernel kernel = benchsuite::polyReg(4);
    compiler::FheRuntime destructive;
    destructive.setInPlaceEnabled(true);
    const compiler::RunResult inplace = runKernel(destructive, kernel);
    EXPECT_GT(destructive.inPlaceStats().consumed, 0u);
    compiler::FheRuntime cloning;
    cloning.setInPlaceEnabled(false);
    const compiler::RunResult copying = runKernel(cloning, kernel);
    EXPECT_EQ(inplace.output, copying.output);
    EXPECT_EQ(inplace.final_noise_budget, copying.final_noise_budget);
}

TEST(ArenaDifferentialTest, EightWorkerMixedModesMatchReference)
{
    // 8 workers, every (arena, in-place) combination among them, each
    // on its own runtime: all must decode the reference output. This is
    // the "any worker count" leg of the determinism contract and the
    // TSan job's cross-thread arena exercise through the full scheme.
    const benchsuite::Kernel kernel = benchsuite::dotProduct(4);
    compiler::FheRuntime reference_runtime;
    const compiler::RunResult reference =
        runKernel(reference_runtime, kernel);

    constexpr int kWorkers = 8;
    std::vector<std::vector<std::int64_t>> outputs(kWorkers);
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&kernel, &outputs, t] {
            compiler::FheRuntime runtime;
            runtime.setInPlaceEnabled(t % 2 == 0);
            runtime.scheme().setArenaEnabled((t / 2) % 2 == 0);
            outputs[static_cast<std::size_t>(t)] =
                runKernel(runtime, kernel).output;
        });
    }
    for (auto& worker : workers) worker.join();
    for (int t = 0; t < kWorkers; ++t) {
        EXPECT_EQ(outputs[static_cast<std::size_t>(t)], reference.output)
            << "worker " << t;
    }
}

} // namespace
} // namespace chehab
