/// \file
/// SIMD differential suite for the NTT hot path: the 8-lane 32-bit AVX2
/// kernel must be bit-identical to the scalar Harvey path and the seed
/// baseline for every dispatch mode, through both the std::uint64_t*
/// entries (which narrow into the kernel, including boundary operands
/// deep in the lazy domain: p-1, 2p-1, 4p-1) and the std::uint32_t*
/// entries key switching uses (inputs up to 2p-1), for 30- and 31-bit
/// primes and t = 65537 at n from 8 to 32768, against an O(n^2)
/// evaluation reference at small n, and with the process-wide switch
/// toggled both ways. The kernel's Barrett multiply-accumulate is pinned
/// against the scalar Barrett::mulMod. Also pins the PR 10 bugfix
/// pair: n^-1 mod p is memoized in the shared table cache (no repeated
/// inversions or root searches per transform), and NttTables' p < 2^62
/// precondition aborts instead of silently overflowing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "fhe/modarith.h"
#include "fhe/ntt.h"
#include "support/rng.h"

namespace chehab::fhe {
namespace {

/// Restores the process-wide SIMD switch around each test so a failing
/// assertion cannot leak a forced mode into unrelated tests.
class NttSimdTest : public ::testing::Test
{
  protected:
    void SetUp() override { initial_ = simdEnabled(); }
    void TearDown() override { setSimdEnabled(initial_); }

  private:
    bool initial_ = false;
};

std::vector<std::uint64_t>
randomPoly(Rng& rng, int n, std::uint64_t p)
{
    std::vector<std::uint64_t> poly(static_cast<std::size_t>(n));
    for (auto& c : poly) c = rng.uniformInt(p);
    return poly;
}

/// Primes spanning the supported range; SealLite's chains stay ~30-bit
/// but NttTables accepts anything below 2^62.
std::vector<std::uint64_t>
testPrimes()
{
    return {
        findNttPrimes(30, 1, 512)[0],
        findNttPrimes(45, 1, 512)[0],
        findNttPrimes(61, 1, 512)[0],
    };
}

TEST_F(NttSimdTest, DispatchIsBitIdenticalToScalarAndBaseline)
{
    Rng rng(21);
    for (const std::uint64_t p : testPrimes()) {
        for (const int n : {8, 32, 128, 256}) {
            const NttTables tables(n, p);
            for (int trial = 0; trial < 4; ++trial) {
                const auto input = randomPoly(rng, n, p);

                auto scalar = input;
                tables.forwardScalar(scalar.data());

                auto baseline = input;
                tables.forwardBaseline(baseline.data());
                ASSERT_EQ(scalar, baseline) << "p=" << p << " n=" << n;

                for (const bool simd : {false, true}) {
                    setSimdEnabled(simd);
                    auto dispatched = input;
                    tables.forward(dispatched.data());
                    ASSERT_EQ(dispatched, scalar)
                        << "forward p=" << p << " n=" << n
                        << " simd=" << simd;

                    tables.inverse(dispatched.data());
                    auto inv_scalar = scalar;
                    tables.inverseScalar(inv_scalar.data());
                    ASSERT_EQ(dispatched, inv_scalar)
                        << "inverse p=" << p << " n=" << n
                        << " simd=" << simd;
                    ASSERT_EQ(dispatched, input)
                        << "round-trip p=" << p << " n=" << n
                        << " simd=" << simd;
                }
            }
        }
    }
}

TEST_F(NttSimdTest, BoundaryOperandsDeepInTheLazyDomain)
{
    // The Harvey butterflies accept inputs beyond [0, p): u is lazily
    // reduced from [0, 4p) and the Shoup multiply takes any 64-bit
    // operand. The vector lanes must take the exact same reduction
    // sequence, so out-of-range inputs are part of the bit-identity
    // contract, not undefined behavior.
    for (const std::uint64_t p : testPrimes()) {
        const int n = 64;
        const NttTables tables(n, p);
        const std::uint64_t edges[] = {0,         1,         p - 1,
                                       p,         2 * p - 1, 2 * p,
                                       4 * p - 1};
        std::vector<std::uint64_t> input(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            input[static_cast<std::size_t>(i)] =
                edges[static_cast<std::size_t>(i) % std::size(edges)];
        }

        auto scalar = input;
        tables.forwardScalar(scalar.data());
        setSimdEnabled(true);
        auto vec = input;
        tables.forward(vec.data());
        ASSERT_EQ(vec, scalar) << "forward p=" << p;

        auto inv_scalar = scalar;
        tables.inverseScalar(inv_scalar.data());
        tables.inverse(vec.data());
        ASSERT_EQ(vec, inv_scalar) << "inverse p=" << p;
    }
}

TEST_F(NttSimdTest, TinyDegreesStayScalarAndCorrect)
{
    // n < 8 never vectorizes (a 4-wide butterfly needs t >= 4), but the
    // dispatcher must still produce the exact scalar answer with SIMD
    // forced on.
    const std::uint64_t p = findNttPrimes(30, 1, 512)[0];
    setSimdEnabled(true);
    for (const int n : {1, 2, 4}) {
        const NttTables tables(n, p);
        Rng rng(static_cast<std::uint64_t>(n) + 33);
        const auto input = randomPoly(rng, n, p);
        auto dispatched = input;
        auto scalar = input;
        tables.forward(dispatched.data());
        tables.forwardScalar(scalar.data());
        ASSERT_EQ(dispatched, scalar) << "n=" << n;
        tables.inverse(dispatched.data());
        tables.inverseScalar(scalar.data());
        ASSERT_EQ(dispatched, scalar) << "n=" << n;
        ASSERT_EQ(dispatched, input) << "n=" << n;
    }
}

TEST_F(NttSimdTest, LaneFuzzAcrossDispatchModes)
{
    // Odd sizes around the 4-lane width: every tail/alignment case the
    // stage loops can hit, fuzzed with the switch toggled per trial.
    Rng rng(22);
    const std::uint64_t p = findNttPrimes(31, 1, 2048)[0];
    for (const int n : {8, 16, 512, 1024}) {
        const NttTables tables(n, p);
        for (int trial = 0; trial < 8; ++trial) {
            const auto input = randomPoly(rng, n, p);
            setSimdEnabled(trial % 2 == 0);
            auto a = input;
            tables.forward(a.data());
            setSimdEnabled(trial % 2 != 0);
            auto b = input;
            tables.forward(b.data());
            ASSERT_EQ(a, b) << "n=" << n << " trial=" << trial;
            setSimdEnabled(true);
            tables.inverse(a.data());
            setSimdEnabled(false);
            tables.inverse(b.data());
            ASSERT_EQ(a, b) << "n=" << n << " trial=" << trial;
            ASSERT_EQ(a, input) << "n=" << n << " trial=" << trial;
        }
    }
}

TEST_F(NttSimdTest, ForcingSimdOnScalarBuildsClampsToSupported)
{
    setSimdEnabled(true);
    EXPECT_EQ(simdEnabled(), simdSupported());
    setSimdEnabled(false);
    EXPECT_FALSE(simdEnabled());
}

// -- 32-bit kernel: both entry widths, 30/31-bit primes and t ----------

constexpr int kKernelDegrees[] = {8, 16, 64, 1024, 4096, 32768};

/// A 30-bit and a 31-bit prime and t = 65537, each ≡ 1 (mod 2^16), so
/// NTT-friendly at every degree up to 32768.
std::vector<std::uint64_t>
kernelPrimes()
{
    return {findNttPrimes(30, 1, 1 << 16)[0],
            findNttPrimes(31, 1, 1 << 16)[0], 65537};
}

/// 0, 1, p - 1, the words of \p edges, then uniform words in [0, p),
/// repeating across the polynomial.
std::vector<std::uint64_t>
edgeMix(Rng& rng, int n, std::uint64_t p,
        const std::vector<std::uint64_t>& edges)
{
    std::vector<std::uint64_t> fixed = {0, 1, p - 1};
    fixed.insert(fixed.end(), edges.begin(), edges.end());
    const std::size_t period = 2 * fixed.size();
    std::vector<std::uint64_t> poly(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < poly.size(); ++i) {
        const std::size_t slot = i % period;
        poly[i] = slot < fixed.size() ? fixed[slot] : rng.uniformInt(p);
    }
    return poly;
}

std::vector<std::uint32_t>
words32(const std::vector<std::uint64_t>& poly)
{
    return std::vector<std::uint32_t>(poly.begin(), poly.end());
}

std::vector<std::uint64_t>
words64(const std::vector<std::uint32_t>& poly)
{
    return std::vector<std::uint64_t>(poly.begin(), poly.end());
}

TEST_F(NttSimdTest, Word32EntriesMatchTheScalarPath)
{
    Rng rng(31);
    for (const std::uint64_t p : kernelPrimes()) {
        for (const int n : kKernelDegrees) {
            const NttTables tables(n, p);
            // The 32-bit entries accept [0, 2p): a key-switch digit can
            // exceed a smaller prime.
            const auto input = edgeMix(rng, n, p, {p, 2 * p - 1});
            auto fwd_want = input;
            tables.forwardScalar(fwd_want.data());
            auto inv_want = input;
            tables.inverseScalar(inv_want.data());
            for (const bool simd : {false, true}) {
                SCOPED_TRACE("p=" + std::to_string(p) +
                             " n=" + std::to_string(n) +
                             " simd=" + std::to_string(simd));
                setSimdEnabled(simd);
                auto fwd = words32(input);
                tables.forward(fwd.data());
                ASSERT_EQ(words64(fwd), fwd_want);
                auto inv = words32(input);
                tables.inverse(inv.data());
                ASSERT_EQ(words64(inv), inv_want);
                tables.inverse(fwd.data());
                for (std::size_t i = 0; i < input.size(); ++i) {
                    ASSERT_EQ(fwd[i], input[i] % p) << "round trip " << i;
                }
            }
        }
    }
}

TEST_F(NttSimdTest, Word64EntriesNarrowIntoTheKernel)
{
    Rng rng(32);
    for (const std::uint64_t p : kernelPrimes()) {
        for (const int n : kKernelDegrees) {
            const NttTables tables(n, p);
            // forward() keeps the scalar path's lazy [0, 4p) input
            // domain, inverse() its [0, 2p) one.
            const auto fwd_input =
                edgeMix(rng, n, p, {p, 2 * p - 1, 2 * p, 4 * p - 1});
            const auto inv_input = edgeMix(rng, n, p, {p, 2 * p - 1});
            auto fwd_want = fwd_input;
            tables.forwardScalar(fwd_want.data());
            auto inv_want = inv_input;
            tables.inverseScalar(inv_want.data());
            for (const bool simd : {false, true}) {
                SCOPED_TRACE("p=" + std::to_string(p) +
                             " n=" + std::to_string(n) +
                             " simd=" + std::to_string(simd));
                setSimdEnabled(simd);
                auto fwd = fwd_input;
                tables.forward(fwd.data());
                ASSERT_EQ(fwd, fwd_want);
                auto inv = inv_input;
                tables.inverse(inv.data());
                ASSERT_EQ(inv, inv_want);
            }
        }
    }
}

/// Bit reversal of the low \p bits bits.
std::size_t
bitReverse(std::size_t value, int bits)
{
    std::size_t out = 0;
    for (int b = 0; b < bits; ++b) out |= ((value >> b) & 1) << (bits - 1 - b);
    return out;
}

TEST_F(NttSimdTest, Word32EntriesMatchQuadraticEvaluation)
{
    // Slot i of the forward transform holds a(ψ^(2·rev(i) + 1)), ψ the
    // primitive 2n-th root the tables are built from; the inverse
    // interpolates back with n^-1 and ψ^-1.
    Rng rng(33);
    for (const std::uint64_t p : kernelPrimes()) {
        for (const int n : {8, 16, 64}) {
            int log_n = 0;
            while ((1 << log_n) < n) ++log_n;
            const NttTables tables(n, p);
            const std::uint64_t psi =
                findPrimitiveRoot(2 * static_cast<std::uint64_t>(n), p);
            const std::uint64_t psi_inv = invMod(psi, p);
            const std::uint64_t n_inv =
                invMod(static_cast<std::uint64_t>(n), p);
            const auto input = edgeMix(rng, n, p, {});
            std::vector<std::uint64_t> evals(input.size());
            for (std::size_t i = 0; i < evals.size(); ++i) {
                const std::uint64_t point =
                    powMod(psi, 2 * bitReverse(i, log_n) + 1, p);
                std::uint64_t acc = 0;
                std::uint64_t power = 1;
                for (const std::uint64_t coeff : input) {
                    acc = addMod(acc, mulMod(coeff, power, p), p);
                    power = mulMod(power, point, p);
                }
                evals[i] = acc;
            }
            std::vector<std::uint64_t> interp(input.size());
            for (std::size_t j = 0; j < interp.size(); ++j) {
                std::uint64_t acc = 0;
                for (std::size_t i = 0; i < evals.size(); ++i) {
                    const std::uint64_t point =
                        powMod(psi_inv, (2 * bitReverse(i, log_n) + 1) * j, p);
                    acc = addMod(acc, mulMod(input[i], point, p), p);
                }
                interp[j] = mulMod(acc, n_inv, p);
            }
            for (const bool simd : {false, true}) {
                SCOPED_TRACE("p=" + std::to_string(p) +
                             " n=" + std::to_string(n) +
                             " simd=" + std::to_string(simd));
                setSimdEnabled(simd);
                auto fwd = words32(input);
                tables.forward(fwd.data());
                ASSERT_EQ(words64(fwd), evals);
                auto inv = words32(input);
                tables.inverse(inv.data());
                ASSERT_EQ(words64(inv), interp);
            }
        }
    }
}

TEST_F(NttSimdTest, MulAccumulateMatchesScalarBarrett)
{
    Rng rng(34);
    for (const std::uint64_t p : {findNttPrimes(30, 1, 1 << 16)[0],
                                  findNttPrimes(31, 1, 1 << 16)[0]}) {
        const Barrett barrett(p);
        for (const int n : {16, 4096}) {
            const NttTables tables(n, p);
            const auto x = edgeMix(rng, n, p, {});
            auto y = edgeMix(rng, n, p, {});
            // Shift y against x so edge meets edge and uniform alike.
            std::rotate(y.begin(), y.begin() + 1, y.end());
            const auto acc = edgeMix(rng, n, p, {});
            std::vector<std::uint64_t> want(acc.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                want[i] = addMod(acc[i], barrett.mulMod(x[i], y[i]), p);
            }
            const auto x32 = words32(x);
            const auto y32 = words32(y);
            for (const bool simd : {false, true}) {
                SCOPED_TRACE("p=" + std::to_string(p) +
                             " n=" + std::to_string(n) +
                             " simd=" + std::to_string(simd));
                setSimdEnabled(simd);
                auto got = words32(acc);
                tables.mulAccumulate(got.data(), x32.data(), y32.data());
                ASSERT_EQ(words64(got), want);
            }
        }
    }
}

TEST_F(NttSimdTest, MulAccumulateTakesBothBarrettSubtracts)
{
    // The lane Barrett quotient undershoots x·y / p by two only for
    // rare operands; these pairs (found by search, one in ~20000 near
    // p) leave a remainder in [2p, 3p), so a kernel that subtracts p
    // once fails here. Primes just above 2^(s-1), ≡ 1 (mod 32). The
    // accumulator starts at p - 1 so the final add's own subtract
    // cannot mask a missing one.
    struct Case
    {
        std::uint64_t p, x, y;
    };
    for (const Case& c : {Case{536872993, 509532513, 407200039},
                          Case{1073745121, 969810776, 925953595}}) {
        const int n = 16;
        const NttTables tables(n, c.p);
        const std::uint64_t want =
            addMod(c.p - 1, Barrett(c.p).mulMod(c.x, c.y), c.p);
        const std::vector<std::uint32_t> x(n, static_cast<std::uint32_t>(c.x));
        const std::vector<std::uint32_t> y(n, static_cast<std::uint32_t>(c.y));
        for (const bool simd : {false, true}) {
            setSimdEnabled(simd);
            std::vector<std::uint32_t> acc(
                n, static_cast<std::uint32_t>(c.p - 1));
            tables.mulAccumulate(acc.data(), x.data(), y.data());
            for (const std::uint32_t word : acc) {
                ASSERT_EQ(word, want) << "p=" << c.p << " simd=" << simd;
            }
        }
    }
}

// -- PR 10 bugfix pins --------------------------------------------------

TEST_F(NttSimdTest, InvNMemoizedInTableCache)
{
    const std::uint64_t p = findNttPrimes(30, 1, 1024)[0];
    const auto tables = acquireNttTables(512, p);
    // n * n^-1 ≡ 1 (mod p), computed once at construction.
    EXPECT_EQ(static_cast<std::uint64_t>(
                  static_cast<__uint128_t>(tables->invN()) * 512 % p),
              1u);
    // Re-acquiring the same (n, p) is a cache hit and performs no new
    // inversion or root/prime search work.
    const std::uint64_t roots_before = primitiveRootSearches();
    const std::uint64_t primes_before = nttPrimeSearches();
    const NttTableCacheStats cache_before = nttTableCacheStats();
    const auto again = acquireNttTables(512, p);
    EXPECT_EQ(again.get(), tables.get());
    EXPECT_EQ(again->invN(), tables->invN());
    EXPECT_EQ(primitiveRootSearches(), roots_before);
    EXPECT_EQ(nttPrimeSearches(), primes_before);
    EXPECT_EQ(nttTableCacheStats().hits, cache_before.hits + 1);
}

#if GTEST_HAS_DEATH_TEST
TEST(NttSimdDeathTest, RejectsPrimesAtOrAbove62Bits)
{
    // The lazy representation needs 4p < 2^64; the vector path relies
    // on it too (lane values in [0, 4p) must not wrap). Find a 63-bit
    // prime ≡ 1 (mod 8) so only the width precondition trips.
    std::uint64_t p = (1ULL << 62) + 1;
    while (!isPrime(p) || p % 8 != 1) p += 8;
    ASSERT_GE(p, 1ULL << 62);
    EXPECT_DEATH({ NttTables tables(4, p); }, "2\\^64");
}
#endif

} // namespace
} // namespace chehab::fhe
