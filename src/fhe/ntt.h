/// \file
/// Negacyclic Number-Theoretic Transform over an NTT-friendly prime
/// p < 2^31 (p ≡ 1 mod 2n). Used for fast polynomial multiplication in
/// Z_p[x]/(x^n + 1), and with p = t for SealLite's slot batching. The
/// forward transform leaves values in scrambled (bit-reversed) order and
/// the inverse consumes that order: products are pointwise, as in SEAL,
/// and batching locates each slot's index once at construction.
///
/// NttTables owns one table set: 32-bit twiddles with 32-bit Shoup
/// companions (layout and leg bounds in fhe/ntt_simd.h). Two
/// implementations read it and produce identical output words:
/// - The vector kernel (fhe/ntt_avx2.cc): eight 32-bit AVX2 lanes. It
///   runs at n >= 16 when SIMD is enabled.
/// - The scalar 32-bit path: the kernel's butterflies one word at a
///   time, every leg in [0, 2p). It runs for n < 16 (SealLite allows
///   n = 8), with SIMD off, on CPUs without AVX2, and in the
///   CHEHAB_AVX2=OFF build.
///
/// NttTables also owns SealLite's pointwise products in the NTT domain,
/// with the same two implementations and equal words: the Shoup product
/// against a cached form, the degree-2 tensor product (lane Barrett),
/// and the key switch's lazy inner products, which sum raw 64-bit
/// products and reduce once per prime (Harvey's lazy reduction; SEAL
/// sums its key-switch products the same way). The mod-switch drop's
/// two coefficient-wise passes come the same two ways.
///
/// SealLite calls only the std::uint32_t* entries. The two
/// std::uint64_t* entries adapt 64-bit words for perfbench's frozen
/// fhe.ntt_* probe; they go with that probe at the next benchmark
/// change.
#pragma once

#include <cstdint>
#include <memory>

#include "fhe/modarith.h"
#include "fhe/ntt_simd.h"

namespace chehab::fhe {

/// Precomputed tables for one (n, p) pair.
class NttTables
{
  public:
    /// \p n must be a power of two with 2n | p-1, and p < 2^31.
    NttTables(int n, std::uint64_t p);

    int n() const { return tables_.n; }
    std::uint64_t modulus() const { return tables_.p; }

    /// In-place forward negacyclic NTT (natural -> scrambled order).
    /// Input words in [0, 2p), output fully reduced to [0, p). Runs the
    /// 8-lane kernel when it applies (see the file comment), otherwise
    /// the scalar path.
    void forward(std::uint32_t* values) const;

    /// In-place inverse negacyclic NTT (scrambled -> natural order),
    /// the n^-1 scaling fused into the last stage. Input words in
    /// [0, 2p), output fully reduced to [0, p). Dispatch like forward().
    void inverse(std::uint32_t* values) const;

    /// \name Pointwise products in the NTT domain
    /// Each runs 8 lanes when the kernel applies (see the file comment),
    /// else a scalar loop, and leaves equal, fully reduced words.
    /// @{
    /// x[i] = x[i]·w[i] mod p for i < n: \p w a cached form's words in
    /// [0, p) with their Shoup companions, any 32-bit x.
    void pointwiseShoup(std::uint32_t* x, const std::uint32_t* w,
                        const std::uint32_t* w_shoup) const;

    /// The degree-2 tensor product of two transformed ciphertexts, in
    /// place: a0 = a0·b0, b1 = a0·b1 + a1·b0 and a1 = a1·b1 mod p for
    /// i < n, every operand in [0, p). Barrett products (neither operand
    /// is known ahead of time).
    void tensor(std::uint32_t* a0, std::uint32_t* a1,
                const std::uint32_t* b0, std::uint32_t* b1) const;

    /// Lazy, fused inner products for key switching: \p sums0 and
    /// \p sums1 (2n words each) hold n 64-bit sums, laid out in blocks
    /// of eight coefficients (fhe/ntt_simd.h), and this adds
    /// x[i]·y0[i] to the first and x[i]·y1[i] to the second, every
    /// operand in [0, p). \p terms counts the products the sums already
    /// hold, 0 for none (their words are then overwritten, not read);
    /// the count after this call is returned. A sum holds lazyTerms()
    /// raw products below 2^64; at that count both are reduced first,
    /// and a reduced sum counts as one term. Requires n >= 8.
    int accumulateProducts(std::uint32_t* sums0, std::uint32_t* sums1,
                           int terms, const std::uint32_t* x,
                           const std::uint32_t* y0,
                           const std::uint32_t* y1) const;

    /// Reduce both lazy sums mod p, each into the first n words of its
    /// own buffer: natural order, fully reduced, ready for inverse().
    void reduceSums(std::uint32_t* sums0, std::uint32_t* sums1) const;

    /// Raw products a 64-bit sum holds: ⌊(2^64 - 1)/(p - 1)^2⌋, which is
    /// 16 for 30-bit primes near 2^30 and 4 for 31-bit ones near 2^31.
    int lazyTerms() const { return lazy_terms_; }
    /// @}

    /// \name The mod-switch drop (SealLite::modSwitchTo)
    /// Two passes with the same dispatch as the pointwise entries, and
    /// equal, fully reduced words. Dropping q_last rescales by a
    /// correction δ ≡ c (mod q_last), δ ≡ 0 (mod t); δ is never formed
    /// (|δ| reaches q_last·t/2), only its two 32-bit parts.
    /// @{
    /// On the tables of t: for i < n, delta0[i] = δ0, the centered
    /// residue of last[i] mod q_last, and u[i] = -δ0·q_last^-1 mod t,
    /// centered, both two's-complement words (δ = δ0 + q_last·u).
    /// \p inv_q_last is q_last^-1 mod t with its Shoup companion.
    void dropCorrection(const std::uint32_t* last, std::uint32_t q_last,
                        std::uint32_t inv_q_last,
                        std::uint32_t inv_q_last_shoup,
                        std::uint32_t* delta0, std::uint32_t* u) const;

    /// On the tables of a surviving prime p, for i < n:
    /// c[i] = (c[i] - δ)·factor mod p, with δ mod p built from
    /// dropCorrection's words as (δ0 mod p) + (q_last mod p)·(u mod p).
    /// Requires |δ0|, |u| < p (every chain prime exceeds
    /// 2^(prime_bits-1) > q_last/2, and t < p) and c[i] in [0, p).
    void dropRescale(std::uint32_t* c, const std::uint32_t* delta0,
                     const std::uint32_t* u, std::uint32_t q_last_mod,
                     std::uint32_t q_last_mod_shoup, std::uint32_t factor,
                     std::uint32_t factor_shoup) const;
    /// @}

    /// \name perfbench adapters
    /// forward() and inverse() on 64-bit words in [0, 4p): narrowed
    /// into a per-thread 32-bit buffer, transformed there, copied back
    /// fully reduced. Only perfbench's fhe.ntt_* probe calls them.
    /// @{
    void forward(std::uint64_t* values) const;
    void inverse(std::uint64_t* values) const;
    /// @}

    /// Barrett reducer for this prime (exact for any 64-bit word).
    const Barrett& reducer() const { return barrett_; }

    /// n^-1 mod p, memoized at construction (for tests asserting the
    /// memoization contract; transforms read the tables directly).
    std::uint64_t invN() const { return tables_.inv_n; }

  private:
    Barrett barrett_;
    simd::Tables32 tables_;
    int lazy_terms_ = 0;

    /// Every lazy sum of one buffer mod p, in place or compacted.
    void reduceLazySums(std::uint32_t* sums, bool compact) const;

    /// The kernel applies to this call: n >= 16 and SIMD is enabled.
    bool vectorized() const;
};

/// \name SIMD dispatch control (process-wide)
/// The AVX2 kernel lives in its own -mavx2 translation unit; whether
/// NttTables routes to it is decided per call from three
/// gates: compiled in (CHEHAB_AVX2 build option), supported (cpuid),
/// and enabled (this switch; defaults to supported). chehabd's --simd
/// flag and the differential tests drive setSimdEnabled; it clamps to
/// simdSupported() so forcing SIMD on a scalar build stays a no-op.
/// @{
bool simdCompiledIn();
bool simdSupported();
void setSimdEnabled(bool enabled);
bool simdEnabled();
/// @}

/// Process-wide content-addressed NttTables cache keyed by (n, p).
/// RuntimePool replicas and every SealLite instance with the same
/// parameters share one immutable table set instead of rebuilding
/// identical twiddle vectors per construction. Entries live for the
/// remainder of the process (tables are a few n-sized vectors; see the
/// README "Raw speed" notes on lifetime).
std::shared_ptr<const NttTables> acquireNttTables(int n, std::uint64_t p);

/// Cumulative acquireNttTables hit/miss counters (observability for the
/// shared-table satellite test).
struct NttTableCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};
NttTableCacheStats nttTableCacheStats();

} // namespace chehab::fhe
