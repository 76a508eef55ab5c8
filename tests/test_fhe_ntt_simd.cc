/// \file
/// SIMD differential suite for the NTT hot path: the 8-lane 32-bit AVX2
/// kernel must be bit-identical to the scalar 32-bit path on one table,
/// with the process-wide switch toggled both ways. The std::uint32_t*
/// entries take inputs up to 2p-1 (a key-switch digit can exceed a
/// smaller prime), for 30- and 31-bit primes and t = 65537 at n from 1
/// to 32768, and both paths meet an O(n^2) evaluation reference at small
/// n. The std::uint64_t* adapters take [0, 4p) and must agree with the
/// 32-bit entries. The pointwise entries are pinned against scalar
/// references with SIMD on and off: the key switch's lazy sums and the
/// tensor product against Barrett::mulMod one product at a time, and
/// the Shoup product against a 128-bit mulMod. Also pins two table
/// contracts: n^-1 mod p is memoized in the shared table cache (no
/// repeated inversions or root searches per transform), and NttTables'
/// p < 2^31 precondition aborts instead of silently overflowing.
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

std::vector<std::uint32_t>
randomPoly(Rng& rng, int n, std::uint64_t p)
{
    std::vector<std::uint32_t> poly(static_cast<std::size_t>(n));
    for (auto& c : poly) c = static_cast<std::uint32_t>(rng.uniformInt(p));
    return poly;
}

/// SealLite chain widths: a 30-bit and a 31-bit prime, each ≡ 1
/// (mod 512), so NTT-friendly at every degree up to 256.
std::vector<std::uint64_t>
chainPrimes()
{
    return {findNttPrimes(30, 1, 512)[0], findNttPrimes(31, 1, 512)[0]};
}

TEST_F(NttSimdTest, DispatchIsBitIdenticalToScalar)
{
    Rng rng(21);
    for (const std::uint64_t p : chainPrimes()) {
        for (const int n : {8, 32, 128, 256}) {
            const NttTables tables(n, p);
            for (int trial = 0; trial < 4; ++trial) {
                const auto input = randomPoly(rng, n, p);
                setSimdEnabled(false);
                auto scalar = input;
                tables.forward(scalar.data());
                auto inv_scalar = scalar;
                tables.inverse(inv_scalar.data());
                ASSERT_EQ(inv_scalar, input)
                    << "round-trip p=" << p << " n=" << n;

                setSimdEnabled(true);
                auto dispatched = input;
                tables.forward(dispatched.data());
                ASSERT_EQ(dispatched, scalar)
                    << "forward p=" << p << " n=" << n;
                tables.inverse(dispatched.data());
                ASSERT_EQ(dispatched, inv_scalar)
                    << "inverse p=" << p << " n=" << n;
            }
        }
    }
}

TEST_F(NttSimdTest, BoundaryOperandsDeepInTheLazyDomain)
{
    // Both paths accept inputs beyond [0, p): every leg is reduced from
    // [0, 2p) and the Shoup multiply takes any 32-bit operand. The
    // vector lanes must take the exact same reduction sequence, so
    // out-of-range inputs are part of the bit-identity contract, not
    // undefined behavior.
    for (const std::uint64_t p : chainPrimes()) {
        const int n = 64;
        const NttTables tables(n, p);
        const std::uint64_t edges[] = {0, 1, p - 1, p, p + 1, 2 * p - 1};
        std::vector<std::uint32_t> input(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            input[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(
                edges[static_cast<std::size_t>(i) % std::size(edges)]);
        }

        setSimdEnabled(false);
        auto scalar = input;
        tables.forward(scalar.data());
        auto inv_scalar = input;
        tables.inverse(inv_scalar.data());
        setSimdEnabled(true);
        auto vec = input;
        tables.forward(vec.data());
        ASSERT_EQ(vec, scalar) << "forward p=" << p;
        vec = input;
        tables.inverse(vec.data());
        ASSERT_EQ(vec, inv_scalar) << "inverse p=" << p;
    }
}

TEST_F(NttSimdTest, TinyDegreesStayScalarAndCorrect)
{
    // n < 16 never vectorizes (the kernel's tail stages take 16 words),
    // but the dispatcher must still produce the exact scalar answer
    // with SIMD forced on.
    const std::uint64_t p = findNttPrimes(30, 1, 512)[0];
    for (const int n : {1, 2, 4, 8}) {
        const NttTables tables(n, p);
        Rng rng(static_cast<std::uint64_t>(n) + 33);
        const auto input = randomPoly(rng, n, p);
        setSimdEnabled(false);
        auto scalar = input;
        tables.forward(scalar.data());
        setSimdEnabled(true);
        auto dispatched = input;
        tables.forward(dispatched.data());
        ASSERT_EQ(dispatched, scalar) << "n=" << n;
        tables.inverse(dispatched.data());
        setSimdEnabled(false);
        tables.inverse(scalar.data());
        ASSERT_EQ(dispatched, scalar) << "n=" << n;
        ASSERT_EQ(dispatched, input) << "n=" << n;
    }
}

TEST_F(NttSimdTest, LaneFuzzAcrossDispatchModes)
{
    // Sizes around the kernel's 16-word minimum and two wide ones,
    // fuzzed with the switch toggled per trial.
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
            const auto input = words32(edgeMix(rng, n, p, {p, 2 * p - 1}));
            setSimdEnabled(false);
            auto fwd_want = input;
            tables.forward(fwd_want.data());
            auto inv_want = input;
            tables.inverse(inv_want.data());
            for (const bool simd : {false, true}) {
                SCOPED_TRACE("p=" + std::to_string(p) +
                             " n=" + std::to_string(n) +
                             " simd=" + std::to_string(simd));
                setSimdEnabled(simd);
                auto fwd = input;
                tables.forward(fwd.data());
                ASSERT_EQ(fwd, fwd_want);
                auto inv = input;
                tables.inverse(inv.data());
                ASSERT_EQ(inv, inv_want);
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
            // The adapters take forward()'s lazy [0, 4p) input domain and
            // inverse()'s [0, 2p) one; the 32-bit entries see the same
            // residues.
            const auto fwd_input =
                edgeMix(rng, n, p, {p, 2 * p - 1, 2 * p, 4 * p - 1});
            const auto inv_input = edgeMix(rng, n, p, {p, 2 * p - 1});
            const auto reduced = [p](std::vector<std::uint64_t> poly) {
                for (std::uint64_t& word : poly) word %= p;
                return words32(poly);
            };
            for (const bool simd : {false, true}) {
                SCOPED_TRACE("p=" + std::to_string(p) +
                             " n=" + std::to_string(n) +
                             " simd=" + std::to_string(simd));
                setSimdEnabled(simd);
                auto fwd_want = reduced(fwd_input);
                tables.forward(fwd_want.data());
                auto inv_want = reduced(inv_input);
                tables.inverse(inv_want.data());
                auto fwd = fwd_input;
                tables.forward(fwd.data());
                ASSERT_EQ(fwd, words64(fwd_want));
                auto inv = inv_input;
                tables.inverse(inv.data());
                ASSERT_EQ(inv, words64(inv_want));
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
    // interpolates back with n^-1 and ψ^-1. Inputs take the entries'
    // whole [0, 2p) domain, and each edge word leads once so that n = 1
    // sees words in [p, 2p) too.
    Rng rng(33);
    for (const std::uint64_t p : kernelPrimes()) {
        for (const int n : {1, 2, 4, 8, 16, 64}) {
            int log_n = 0;
            while ((1 << log_n) < n) ++log_n;
            const NttTables tables(n, p);
            const std::uint64_t psi =
                findPrimitiveRoot(2 * static_cast<std::uint64_t>(n), p);
            const std::uint64_t psi_inv = invMod(psi, p);
            const std::uint64_t n_inv =
                invMod(static_cast<std::uint64_t>(n), p);
            for (const std::uint64_t lead :
                 {std::uint64_t{0}, p - 1, p, 2 * p - 1}) {
                auto input = edgeMix(rng, n, p, {p, 2 * p - 1});
                input[0] = lead;
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
                        const std::uint64_t point = powMod(
                            psi_inv, (2 * bitReverse(i, log_n) + 1) * j, p);
                        acc = addMod(acc, mulMod(input[i], point, p), p);
                    }
                    interp[j] = mulMod(acc, n_inv, p);
                }
                for (const bool simd : {false, true}) {
                    SCOPED_TRACE("p=" + std::to_string(p) +
                                 " n=" + std::to_string(n) +
                                 " lead=" + std::to_string(lead) +
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
}

TEST_F(NttSimdTest, AccumulateProductsMatchesScalarBarrett)
{
    // The key switch's lazy sums against products reduced one by one,
    // for exactly lazyTerms() terms (the sums fill up) and for three
    // past it (the early reduction runs, then three more products). A
    // leading block of p - 1 in every operand puts the largest
    // product, (p - 1)^2, into every term there, so a sum that held one
    // term too many would wrap past 2^64.
    Rng rng(34);
    for (const std::uint64_t p : {findNttPrimes(30, 1, 1 << 16)[0],
                                  findNttPrimes(31, 1, 1 << 16)[0]}) {
        const Barrett barrett(p);
        for (const int n : {8, 16, 4096}) {
            const NttTables tables(n, p);
            const int bound = tables.lazyTerms();
            ASSERT_EQ(static_cast<std::uint64_t>(bound),
                      ~std::uint64_t{0} / ((p - 1) * (p - 1)));
            for (const int count : {bound, bound + 3}) {
                std::vector<std::vector<std::uint32_t>> x, y0, y1;
                std::vector<std::uint64_t> want0(
                    static_cast<std::size_t>(n));
                std::vector<std::uint64_t> want1(want0.size());
                for (int term = 0; term < count; ++term) {
                    auto a = edgeMix(rng, n, p, {});
                    auto b = edgeMix(rng, n, p, {});
                    auto c = edgeMix(rng, n, p, {});
                    // Shift the operands against each other so edge
                    // meets edge and uniform alike.
                    std::rotate(b.begin(), b.begin() + term % 5, b.end());
                    std::rotate(c.begin(), c.begin() + term % 7, c.end());
                    for (int i = 0; i < 8; ++i) a[i] = b[i] = c[i] = p - 1;
                    for (std::size_t i = 0; i < want0.size(); ++i) {
                        want0[i] =
                            addMod(want0[i], barrett.mulMod(a[i], b[i]), p);
                        want1[i] =
                            addMod(want1[i], barrett.mulMod(a[i], c[i]), p);
                    }
                    x.push_back(words32(a));
                    y0.push_back(words32(b));
                    y1.push_back(words32(c));
                }
                for (const bool simd : {false, true}) {
                    SCOPED_TRACE("p=" + std::to_string(p) +
                                 " n=" + std::to_string(n) +
                                 " terms=" + std::to_string(count) +
                                 " simd=" + std::to_string(simd));
                    setSimdEnabled(simd);
                    // Garbage in the buffer: the first term overwrites.
                    std::vector<std::uint32_t> sums(
                        4 * static_cast<std::size_t>(n), 0xdeadbeef);
                    std::uint32_t* sums0 = sums.data();
                    std::uint32_t* sums1 = sums0 + 2 * n;
                    int terms = 0;
                    for (int term = 0; term < count; ++term) {
                        terms = tables.accumulateProducts(
                            sums0, sums1, terms, x[term].data(),
                            y0[term].data(), y1[term].data());
                    }
                    EXPECT_EQ(terms,
                              count <= bound ? count : count - bound + 1);
                    tables.reduceSums(sums0, sums1);
                    ASSERT_EQ(words64(std::vector<std::uint32_t>(
                                  sums0, sums0 + n)),
                              want0);
                    ASSERT_EQ(words64(std::vector<std::uint32_t>(
                                  sums1, sums1 + n)),
                              want1);
                }
            }
        }
    }
}

TEST_F(NttSimdTest, TensorMatchesScalarBarrett)
{
    Rng rng(35);
    for (const std::uint64_t p : {findNttPrimes(30, 1, 1 << 16)[0],
                                  findNttPrimes(31, 1, 1 << 16)[0]}) {
        const Barrett barrett(p);
        for (const int n : {8, 16, 4096}) {
            const NttTables tables(n, p);
            const auto a0 = edgeMix(rng, n, p, {});
            auto a1 = edgeMix(rng, n, p, {});
            auto b0 = edgeMix(rng, n, p, {});
            auto b1 = edgeMix(rng, n, p, {});
            std::rotate(a1.begin(), a1.begin() + 1, a1.end());
            std::rotate(b0.begin(), b0.begin() + 2, b0.end());
            std::rotate(b1.begin(), b1.begin() + 3, b1.end());
            std::vector<std::uint64_t> e0(a0.size()), e1(a0.size()),
                e2(a0.size());
            for (std::size_t i = 0; i < a0.size(); ++i) {
                e0[i] = barrett.mulMod(a0[i], b0[i]);
                e1[i] = addMod(barrett.mulMod(a0[i], b1[i]),
                               barrett.mulMod(a1[i], b0[i]), p);
                e2[i] = barrett.mulMod(a1[i], b1[i]);
            }
            for (const bool simd : {false, true}) {
                SCOPED_TRACE("p=" + std::to_string(p) +
                             " n=" + std::to_string(n) +
                             " simd=" + std::to_string(simd));
                setSimdEnabled(simd);
                auto x0 = words32(a0);
                auto x1 = words32(a1);
                auto y1 = words32(b1);
                tables.tensor(x0.data(), x1.data(), words32(b0).data(),
                              y1.data());
                ASSERT_EQ(words64(x0), e0);
                ASSERT_EQ(words64(y1), e1);
                ASSERT_EQ(words64(x1), e2);
            }
        }
    }
}

TEST_F(NttSimdTest, TensorTakesBothBarrettSubtracts)
{
    // The lane Barrett quotient undershoots x·y / p by two only for
    // rare operands; these pairs (found by search, one in ~20000 near
    // p) leave a remainder in [2p, 3p), so a kernel that subtracts p
    // once fails here. Primes just above 2^(s-1), ≡ 1 (mod 32). With
    // a0 = a1 = x and b0 = b1 = y, e0 and e2 are the bare product, which
    // no later add's subtract can mask.
    struct Case
    {
        std::uint64_t p, x, y;
    };
    for (const Case& c : {Case{536872993, 509532513, 407200039},
                          Case{1073745121, 969810776, 925953595}}) {
        const int n = 16;
        const NttTables tables(n, c.p);
        const Barrett barrett(c.p);
        const std::uint64_t product = barrett.mulMod(c.x, c.y);
        const std::uint64_t twice = addMod(product, product, c.p);
        for (const bool simd : {false, true}) {
            setSimdEnabled(simd);
            std::vector<std::uint32_t> a0(
                n, static_cast<std::uint32_t>(c.x));
            std::vector<std::uint32_t> a1 = a0;
            const std::vector<std::uint32_t> b0(
                n, static_cast<std::uint32_t>(c.y));
            std::vector<std::uint32_t> b1 = b0;
            tables.tensor(a0.data(), a1.data(), b0.data(), b1.data());
            for (int i = 0; i < n; ++i) {
                ASSERT_EQ(a0[i], product) << "p=" << c.p << " simd=" << simd;
                ASSERT_EQ(b1[i], twice) << "p=" << c.p << " simd=" << simd;
                ASSERT_EQ(a1[i], product) << "p=" << c.p << " simd=" << simd;
            }
        }
    }
}

TEST_F(NttSimdTest, PointwiseShoupMatchesModularProduct)
{
    // x may be any 32-bit word (a transform's [0, 2p) leg or beyond);
    // w is a cached form's word in [0, p) with its Shoup companion.
    Rng rng(36);
    for (const std::uint64_t p : {findNttPrimes(30, 1, 1 << 16)[0],
                                  findNttPrimes(31, 1, 1 << 16)[0]}) {
        for (const int n : {8, 16, 4096}) {
            const NttTables tables(n, p);
            const auto x = edgeMix(rng, n, p, {p, 2 * p - 1, 0xffffffff});
            auto w = edgeMix(rng, n, p, {});
            std::rotate(w.begin(), w.begin() + 1, w.end());
            std::vector<std::uint32_t> ws(w.size());
            std::vector<std::uint64_t> want(w.size());
            for (std::size_t i = 0; i < w.size(); ++i) {
                ws[i] = shoupPrecompute32(w[i], p);
                want[i] = mulMod(x[i], w[i], p);
            }
            const auto w32 = words32(w);
            for (const bool simd : {false, true}) {
                SCOPED_TRACE("p=" + std::to_string(p) +
                             " n=" + std::to_string(n) +
                             " simd=" + std::to_string(simd));
                setSimdEnabled(simd);
                auto got = words32(x);
                tables.pointwiseShoup(got.data(), w32.data(), ws.data());
                ASSERT_EQ(words64(got), want);
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
TEST(NttSimdDeathTest, RejectsPrimesAtOrAbove2To31)
{
    // Every leg lives in [0, 2p) in a 32-bit word, so p must stay below
    // 2^31. Take the smallest prime above 2^31 that is ≡ 1 (mod 32), so
    // at n = 16 only the width precondition trips.
    std::uint64_t p = (1ULL << 31) + 1;
    while (!isPrime(p)) p += 32;
    ASSERT_GT(p, 1ULL << 31);
    EXPECT_DEATH({ NttTables tables(16, p); }, "2\\^31");
}
#endif

} // namespace
} // namespace chehab::fhe
