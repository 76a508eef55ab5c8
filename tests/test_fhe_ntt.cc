/// \file
/// Hot-path arithmetic property suite: mulModShoup32 (lazy and fully
/// reduced) / Barrett against __uint128 references over boundary
/// operands (0, 1, p-1, words in [p, 2p), 2^64-1 and 2^32-1), the NTT
/// against a naive O(n^2) negacyclic reference, and the shared-table /
/// memoized-search caches' observability counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fhe/modarith.h"
#include "fhe/ntt.h"
#include "support/rng.h"

namespace chehab::fhe {
namespace {

/// Reference (x * w) mod p through the full 128-bit product.
std::uint64_t
refMulMod(std::uint64_t x, std::uint64_t w, std::uint64_t p)
{
    return static_cast<std::uint64_t>(
        static_cast<__uint128_t>(x) * w % p);
}

/// Primes spanning Barrett's range: the ~30-bit SealLite chain width up
/// to 61 bits.
std::vector<std::uint64_t>
barrettPrimes()
{
    return {
        findNttPrimes(30, 1, 512)[0],
        findNttPrimes(45, 1, 512)[0],
        findNttPrimes(61, 1, 512)[0],
    };
}

/// SealLite chain widths: a 30-bit and a 31-bit prime (kMaxPrimeBits).
std::vector<std::uint64_t>
chainPrimes()
{
    return {findNttPrimes(30, 1, 512)[0], findNttPrimes(31, 1, 512)[0]};
}

// -- Shoup multiplication ----------------------------------------------

TEST(MulModShoupTest, MatchesReferenceOnBoundaryOperands)
{
    // w must be a reduced multiplicand (the precomputed side); x may be
    // any 32-bit word, including lazily accumulated ones.
    for (const std::uint64_t p : chainPrimes()) {
        const std::uint64_t ws[] = {0, 1, 2, p / 2, p - 2, p - 1};
        const std::uint64_t xs[] = {0,         1,     p - 1, p, p + 1,
                                    2 * p - 1, 2 * p, 0xffffffffULL};
        for (const std::uint64_t w : ws) {
            const std::uint32_t w_shoup = shoupPrecompute32(w, p);
            for (const std::uint64_t x : xs) {
                const auto x32 = static_cast<std::uint32_t>(x);
                const auto w32 = static_cast<std::uint32_t>(w);
                const auto p32 = static_cast<std::uint32_t>(p);
                EXPECT_EQ(mulModShoup32(x32, w32, w_shoup, p32),
                          refMulMod(x, w, p))
                    << "p=" << p << " w=" << w << " x=" << x;
                // The lazy variant may keep one extra multiple of p
                // but never more.
                const std::uint32_t lazy =
                    mulModShoupLazy32(x32, w32, w_shoup, p32);
                EXPECT_LT(lazy, 2 * p);
                EXPECT_EQ(lazy % p, refMulMod(x, w, p));
            }
        }
    }
}

TEST(MulModShoupTest, MatchesReferenceOnRandomOperands)
{
    Rng rng(7);
    for (const std::uint64_t p : chainPrimes()) {
        const std::uint64_t ws[] = {0, 1, p - 1};
        for (int trial = 0; trial < 2000; ++trial) {
            const std::uint64_t w = trial % 2 == 0
                                        ? rng.uniformInt(p)
                                        : ws[(trial / 2) % 3];
            const auto x = static_cast<std::uint32_t>(rng.next());
            ASSERT_EQ(mulModShoup32(x, static_cast<std::uint32_t>(w),
                                    shoupPrecompute32(w, p),
                                    static_cast<std::uint32_t>(p)),
                      refMulMod(x, w, p))
                << "p=" << p << " w=" << w << " x=" << x;
        }
    }
}

// -- Barrett reduction -------------------------------------------------

TEST(BarrettTest, ReduceMatchesReferenceOnBoundariesAndRandom)
{
    Rng rng(8);
    for (const std::uint64_t p : barrettPrimes()) {
        const Barrett barrett(p);
        const std::uint64_t vs[] = {0,     1,         p - 1, p,
                                    p + 1, 2 * p - 1, 2 * p, ~0ULL};
        for (const std::uint64_t v : vs) {
            EXPECT_EQ(barrett.reduce(v), v % p) << "p=" << p << " v=" << v;
        }
        for (int trial = 0; trial < 2000; ++trial) {
            const std::uint64_t v = rng.next();
            ASSERT_EQ(barrett.reduce(v), v % p) << "p=" << p << " v=" << v;
        }
    }
}

TEST(BarrettTest, MulModMatchesReferenceForChainWidthPrimes)
{
    // Barrett::mulMod needs the raw product to fit 64 bits, which the
    // SealLite chains guarantee by capping prime_bits; exercise the
    // full reduced-operand domain at that width.
    Rng rng(9);
    const std::uint64_t p = findNttPrimes(31, 1, 512)[0];
    const Barrett barrett(p);
    const std::uint64_t edge[] = {0, 1, p - 2, p - 1};
    for (const std::uint64_t a : edge) {
        for (const std::uint64_t b : edge) {
            EXPECT_EQ(barrett.mulMod(a, b), refMulMod(a, b, p));
        }
    }
    for (int trial = 0; trial < 2000; ++trial) {
        const std::uint64_t a = rng.uniformInt(p);
        const std::uint64_t b = rng.uniformInt(p);
        ASSERT_EQ(barrett.mulMod(a, b), refMulMod(a, b, p));
    }
}

// -- NTT vs naive negacyclic reference --------------------------------

/// Schoolbook product in Z_p[x]/(x^n + 1): the wrap-around terms come
/// back negated.
std::vector<std::uint32_t>
naiveNegacyclic(const std::vector<std::uint32_t>& a,
                const std::vector<std::uint32_t>& b, std::uint64_t p)
{
    const std::size_t n = a.size();
    std::vector<std::uint32_t> out(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t term = refMulMod(a[i], b[j], p);
            const std::size_t k = i + j;
            if (k < n) {
                out[k] = static_cast<std::uint32_t>(addMod(out[k], term, p));
            } else {
                out[k - n] =
                    static_cast<std::uint32_t>(subMod(out[k - n], term, p));
            }
        }
    }
    return out;
}

std::vector<std::uint32_t>
randomPoly(Rng& rng, int n, std::uint64_t p)
{
    std::vector<std::uint32_t> poly(static_cast<std::size_t>(n));
    for (auto& c : poly) c = static_cast<std::uint32_t>(rng.uniformInt(p));
    return poly;
}

TEST(HarveyNttTest, PolyMultiplyMatchesNaiveReference)
{
    Rng rng(10);
    for (const std::uint64_t p : chainPrimes()) {
        for (const int n : {2, 4, 16, 64, 256}) {
            const NttTables tables(n, p);
            for (int trial = 0; trial < 5; ++trial) {
                const auto a = randomPoly(rng, n, p);
                const auto b = randomPoly(rng, n, p);
                auto fa = a;
                auto fb = b;
                tables.forward(fa.data());
                tables.forward(fb.data());
                for (int i = 0; i < n; ++i) {
                    fa[static_cast<std::size_t>(i)] =
                        static_cast<std::uint32_t>(tables.reducer().reduce(
                            refMulMod(fa[static_cast<std::size_t>(i)],
                                      fb[static_cast<std::size_t>(i)], p)));
                }
                tables.inverse(fa.data());
                ASSERT_EQ(fa, naiveNegacyclic(a, b, p))
                    << "p=" << p << " n=" << n;
            }
        }
    }
}

TEST(HarveyNttTest, TinyDegreeEdgeCases)
{
    const std::uint64_t p = findNttPrimes(30, 1, 512)[0];
    {
        // n = 1: Z_p[x]/(x + 1) — the transform is the identity and the
        // "product" is a single mulmod.
        const NttTables tables(1, p);
        std::uint32_t value = 42 % p;
        tables.forward(&value);
        tables.inverse(&value);
        EXPECT_EQ(value, 42u % p);
    }
    {
        const NttTables tables(2, p);
        std::vector<std::uint32_t> a = {3, 5};
        std::vector<std::uint32_t> b = {7, 11};
        auto fa = a;
        auto fb = b;
        tables.forward(fa.data());
        tables.forward(fb.data());
        for (int i = 0; i < 2; ++i) {
            fa[static_cast<std::size_t>(i)] =
                static_cast<std::uint32_t>(refMulMod(
                    fa[static_cast<std::size_t>(i)],
                    fb[static_cast<std::size_t>(i)], p));
        }
        tables.inverse(fa.data());
        // (3 + 5x)(7 + 11x) = 21 + 68x + 55x^2 = (21 - 55) + 68x.
        EXPECT_EQ(fa, naiveNegacyclic(a, b, p));
        EXPECT_EQ(fa[0], subMod(21, 55, p));
        EXPECT_EQ(fa[1], 68u);
    }
}

// -- shared tables + memoized searches ---------------------------------

TEST(NttTableCacheTest, SameParamsShareOneTableInstance)
{
    const std::uint64_t p = findNttPrimes(30, 1, 1024)[0];
    const NttTableCacheStats before = nttTableCacheStats();
    const auto first = acquireNttTables(512, p);
    const auto second = acquireNttTables(512, p);
    EXPECT_EQ(first.get(), second.get());
    const NttTableCacheStats after = nttTableCacheStats();
    // The second acquire must be a hit; the first is a hit or a miss
    // depending on what earlier tests (or another first) built.
    EXPECT_GE(after.hits, before.hits + 1);
    // A distinct prime is a distinct entry.
    const std::uint64_t q = findNttPrimes(29, 1, 1024)[0];
    ASSERT_NE(p, q);
    const auto other = acquireNttTables(512, q);
    EXPECT_NE(other.get(), first.get());
    EXPECT_EQ(other->modulus(), q);
}

TEST(NttTableCacheTest, RepeatedSearchesHitTheMemo)
{
    // Cold or warm, the first call may or may not search; the repeat
    // calls with identical arguments must not.
    const std::uint64_t p = findNttPrimes(28, 2, 256)[1];
    findPrimitiveRoot(256, p);
    const std::uint64_t primes_before = nttPrimeSearches();
    const std::uint64_t roots_before = primitiveRootSearches();
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(findNttPrimes(28, 2, 256)[1], p);
        EXPECT_EQ(findPrimitiveRoot(256, p),
                  findPrimitiveRoot(256, p));
    }
    EXPECT_EQ(nttPrimeSearches(), primes_before);
    EXPECT_EQ(primitiveRootSearches(), roots_before);
}

} // namespace
} // namespace chehab::fhe
