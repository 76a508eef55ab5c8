/// \file
/// Negacyclic Number-Theoretic Transform over a 64-bit NTT-friendly prime
/// (p ≡ 1 mod 2n). Used for fast polynomial multiplication in
/// Z_p[x]/(x^n + 1), and with p = t for SealLite's slot batching. The
/// forward transform leaves values in scrambled (bit-reversed) order and
/// the inverse consumes that order: products are pointwise, as in SEAL,
/// and batching locates each slot's index once at construction.
///
/// Every transform has two word-width entries. SealLite stores every
/// residue in 32 bits and calls only the std::uint32_t* entries. The
/// std::uint64_t* entries serve outside callers (perfbench's NTT probe,
/// bench_ntt, the NTT tests) and primes of 2^31 and above.
///
/// Two implementations compute every transform, with identical output
/// words:
/// - The vector kernel (fhe/ntt_avx2.cc): eight 32-bit AVX2 lanes with
///   32-bit Shoup twiddles, every leg kept in [0, 2p). It serves every
///   prime below 2^31 (all SealLite chains, and t) at n >= 16 when SIMD
///   is enabled. The std::uint64_t* entries narrow into it through a
///   per-thread buffer of n words and widen back.
/// - The scalar 64-bit path: Harvey-style lazy reduction with Shoup
///   twiddles (one mulhi + two muls per butterfly, no division).
///   Intermediate values live in [0, 4p) between stages — each
///   butterfly conditionally reduces its u input to [0, 2p) and the
///   Shoup multiply accepts any 64-bit operand — and a single normalize
///   pass brings everything back to [0, p). The final Gentleman-Sande
///   stage of the inverse is fused with the n^-1 scaling. Requires
///   4p < 2^64 (asserted). It runs for primes of 2^31 and above, for
///   n < 16, with SIMD off, and in the CHEHAB_AVX2=OFF build; the
///   std::uint32_t* entries widen into it there.
///
/// The seed's division-per-butterfly path is preserved as
/// forwardBaseline / inverseBaseline for the old-vs-new microbench
/// (bench_ntt) and the equivalence property tests; every path produces
/// bit-identical outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fhe/modarith.h"

namespace chehab::fhe {

namespace simd {
struct Tables32;
}

/// Precomputed tables for one (n, p) pair.
class NttTables
{
  public:
    NttTables() = default;
    /// \p n must be a power of two with 2n | p-1, and p < 2^62.
    NttTables(int n, std::uint64_t p);

    int n() const { return n_; }
    std::uint64_t modulus() const { return p_; }

    /// In-place forward negacyclic NTT (natural -> scrambled order).
    /// Input words in [0, 4p), output fully reduced to [0, p).
    /// Dispatch point: runs the 8-lane kernel when it applies (see the
    /// file comment), otherwise forwardScalar.
    void forward(std::uint64_t* values) const;

    /// In-place inverse negacyclic NTT (scrambled -> natural order),
    /// the n^-1 scaling fused into the last stage. Input words in
    /// [0, 2p), output fully reduced to [0, p). Dispatch point like
    /// forward().
    void inverse(std::uint64_t* values) const;

    /// \name 32-bit word entries (p < 2^31)
    /// The same transforms on 32-bit words, input in [0, 2p) and output
    /// fully reduced, straight into the vector kernel when it applies
    /// (else widened into the scalar path through a per-thread buffer).
    /// Every SealLite transform and key-switch product runs here.
    /// @{
    void forward(std::uint32_t* values) const;
    void inverse(std::uint32_t* values) const;
    /// acc[i] = (acc[i] + x[i]·y[i]) mod p for i < n, every operand in
    /// [0, p): an 8-lane Barrett multiply-accumulate when the kernel
    /// applies, else the scalar Barrett loop.
    void mulAccumulate(std::uint32_t* acc, const std::uint32_t* x,
                       const std::uint32_t* y) const;
    /// @}

    /// \name Scalar Harvey/Shoup path
    /// The PR 7 scalar hot path, callable directly so benches and the
    /// SIMD differential suite can pin scalar-vs-vector bit-identity
    /// without toggling the process-wide dispatch flag.
    /// @{
    void forwardScalar(std::uint64_t* values) const;
    void inverseScalar(std::uint64_t* values) const;
    /// @}

    /// \name Seed reference path (mulMod per butterfly)
    /// Kept for bench_ntt's old-vs-new columns and the equivalence
    /// tests; bit-identical outputs to forward()/inverse().
    /// @{
    void forwardBaseline(std::uint64_t* values) const;
    void inverseBaseline(std::uint64_t* values) const;
    /// @}

    /// Barrett reducer for this prime (for pointwise products between
    /// two variable transforms, where Shoup precomputation does not
    /// apply).
    const Barrett& reducer() const { return barrett_; }

  private:
    int n_ = 0;
    std::uint64_t p_ = 0;
    Barrett barrett_;
    std::vector<std::uint64_t> root_powers_;     ///< psi powers, bit-rev.
    std::vector<std::uint64_t> root_powers_shoup_;
    std::vector<std::uint64_t> inv_root_powers_; ///< psi^-1 powers, bit-rev.
    std::vector<std::uint64_t> inv_root_powers_shoup_;
    /// n^-1 mod p and its Shoup companion, memoized at construction
    /// (one invMod + one shoupPrecompute per table-cache entry — no
    /// transform branch recomputes them per call; pinned by
    /// test_fhe_ntt_simd's InvNMemoizedInTableCache).
    std::uint64_t inv_n_ = 0;
    std::uint64_t inv_n_shoup_ = 0;
    std::uint64_t inv_n_w_ = 0; ///< inv_n * inv_root_powers_[1]: the
                                ///  fused last-stage odd-leg twiddle.
    std::uint64_t inv_n_w_shoup_ = 0;
    /// The vector kernel's 32-bit tables; null where it never applies
    /// (p >= 2^31 or n < 16).
    std::shared_ptr<const simd::Tables32> tables32_;

    /// The kernel applies to this call: tables32_ exists and SIMD is
    /// enabled.
    bool vectorized() const;

  public:
    /// Memoized n^-1 mod p (for tests asserting the memoization
    /// contract; transforms read the private fields directly).
    std::uint64_t invN() const { return inv_n_; }
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
