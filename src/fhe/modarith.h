/// \file
/// Modular arithmetic primitives for the SealLite RLWE backend: mulmod
/// via 128-bit intermediates, Shoup and Barrett division-free
/// multiplication for the NTT hot path, exponentiation, inverses,
/// NTT-friendly prime generation and primitive-root search (both
/// memoized — every NttTables construction used to re-run them).
/// Shoup multiplication is 32-bit only: every NTT prime, chain prime
/// and t is below 2^31, and SealLite stores every residue in 32 bits.
/// The rest takes 64-bit operands.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace chehab::fhe {

/// (a * b) mod m with a,b < m < 2^63. Compiles to a 128-by-64 hardware
/// division; use mulModShoup32 / Barrett on hot paths.
inline std::uint64_t
mulMod(std::uint64_t a, std::uint64_t b, std::uint64_t m)
{
    return static_cast<std::uint64_t>(
        static_cast<__uint128_t>(a) * b % m);
}

/// (a + b) mod m with a,b < m.
inline std::uint64_t
addMod(std::uint64_t a, std::uint64_t b, std::uint64_t m)
{
    const std::uint64_t s = a + b;
    return s >= m ? s - m : s;
}

/// (a - b) mod m with a,b < m.
inline std::uint64_t
subMod(std::uint64_t a, std::uint64_t b, std::uint64_t m)
{
    return a >= b ? a - b : a + m - b;
}

/// High 64 bits of the 128-bit product a * b.
inline std::uint64_t
mulHi64(std::uint64_t a, std::uint64_t b)
{
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(a) * b) >> 64);
}

/// \name Shoup multiplication
/// For a multiplicand w < p < 2^31 that is known ahead of time (twiddle
/// factors, cached NTT forms, CRT and mod-switch constants), precompute
/// w' = floor(w * 2^32 / p). Then for ANY 32-bit x, q = (x * w') >> 32
/// is floor(xw/p) or one less, so r = x*w - q*p (computed mod 2^32)
/// lies in [0, 2p), below 2^32: two 32-bit muls and one 64-bit one, at
/// most one conditional subtract, no division.
/// @{

/// Shoup companion floor(w * 2^32 / p); requires w < p < 2^31.
inline std::uint32_t
shoupPrecompute32(std::uint64_t w, std::uint64_t p)
{
    return static_cast<std::uint32_t>((w << 32) / p);
}

/// (x * w) mod p up to one multiple of p: result in [0, 2p).
inline std::uint32_t
mulModShoupLazy32(std::uint32_t x, std::uint32_t w, std::uint32_t w_shoup,
                  std::uint32_t p)
{
    const auto q = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(x) * w_shoup) >> 32);
    return x * w - q * p;
}

/// Conditional subtract: a - p when a >= p, else a. Branch-free, as in
/// the vector kernel: a - p wraps above a exactly when a < p, so the
/// minimum picks the answer.
inline std::uint32_t
csub32(std::uint32_t a, std::uint32_t p)
{
    return std::min(a, a - p);
}

/// (x * w) mod p, fully reduced to [0, p). Same domain as the lazy
/// variant; one extra conditional subtract.
inline std::uint32_t
mulModShoup32(std::uint32_t x, std::uint32_t w, std::uint32_t w_shoup,
              std::uint32_t p)
{
    return csub32(mulModShoupLazy32(x, w, w_shoup, p), p);
}
/// @}

/// Barrett reduction mod a fixed p for operands that are NOT known ahead
/// of time (pointwise products of two variable NTT slots). Precomputes
/// ratio = floor(2^64 / p); reduce() then costs one mulhi, one mul and
/// one conditional subtract. Requires p < 2^63.
struct Barrett
{
    std::uint64_t modulus = 0;
    std::uint64_t ratio = 0; ///< floor(2^64 / modulus).

    Barrett() = default;
    explicit Barrett(std::uint64_t p)
        : modulus(p),
          ratio(static_cast<std::uint64_t>(
              (static_cast<__uint128_t>(1) << 64) / p))
    {}

    /// v mod p for any 64-bit v. With q = mulhi(v, ratio) we have
    /// q >= floor(v/p) - 1 (ratio > 2^64/p - 1 and v/2^64 < 1), so
    /// r = v - q*p < 2p: one conditional subtract fully reduces.
    std::uint64_t
    reduce(std::uint64_t v) const
    {
        const std::uint64_t q = mulHi64(v, ratio);
        std::uint64_t r = v - q * modulus;
        if (r >= modulus) r -= modulus;
        return r;
    }

    /// (a * b) mod p. The product must fit in 64 bits, i.e. a,b < p
    /// with p < 2^32 (the SealLite prime chains are ~30-bit).
    std::uint64_t
    mulMod(std::uint64_t a, std::uint64_t b) const
    {
        return reduce(a * b);
    }
};

/// a^e mod m.
std::uint64_t powMod(std::uint64_t a, std::uint64_t e, std::uint64_t m);

/// Multiplicative inverse mod prime m (Fermat).
std::uint64_t invMod(std::uint64_t a, std::uint64_t m);

/// Miller-Rabin primality (deterministic bases for 64-bit).
bool isPrime(std::uint64_t n);

/// Find \p count distinct primes of roughly \p bits bits with
/// p ≡ 1 (mod modulus_step); used for NTT-friendly coefficient-modulus
/// chains (step = 2n). Memoized per (bits, count, step).
std::vector<std::uint64_t> findNttPrimes(int bits, int count,
                                         std::uint64_t modulus_step);

/// A primitive 2n-th root of unity mod prime p (requires 2n | p-1).
/// Memoized per (2n, p).
std::uint64_t findPrimitiveRoot(std::uint64_t two_n, std::uint64_t p);

/// \name Memoization observability
/// Total UNCACHED searches performed since process start; a repeated
/// lookup with the same arguments must not increment these (the
/// shared-NttTables satellite test pins this).
/// @{
std::uint64_t primitiveRootSearches();
std::uint64_t nttPrimeSearches();
/// @}

} // namespace chehab::fhe
