/// \file
/// Negacyclic Number-Theoretic Transform over a 64-bit NTT-friendly prime
/// (p ≡ 1 mod 2n). Used for fast polynomial multiplication in
/// Z_p[x]/(x^n + 1), and with p = t for SealLite's slot batching. The
/// forward transform leaves values in scrambled (bit-reversed) order and
/// the inverse consumes that order: products are pointwise, as in SEAL,
/// and batching locates each slot's index once at construction.
///
/// The hot path uses Harvey-style lazy reduction with Shoup-precomputed
/// twiddles (one mulhi + two muls per butterfly, no division):
/// intermediate values live in [0, 4p) between stages — each butterfly
/// conditionally reduces its u input to [0, 2p) and the Shoup multiply
/// accepts any 64-bit operand — and a single normalize pass at the end
/// brings everything back to [0, p). The final Gentleman-Sande stage of
/// the inverse is fused with the n^-1 scaling, so the inverse ends fully
/// reduced with no extra pass. Requires 4p < 2^64 (asserted).
///
/// The seed's division-per-butterfly path is preserved as
/// forwardBaseline / inverseBaseline for the old-vs-new microbench
/// (bench_ntt) and the equivalence property tests; both paths produce
/// bit-identical outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fhe/modarith.h"

namespace chehab::fhe {

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
    /// Harvey lazy reduction; output fully reduced to [0, p).
    /// Dispatch point: routes to the AVX2 4-wide kernels when they are
    /// compiled in, supported by this CPU, enabled (setSimdEnabled) and
    /// n >= 8; otherwise runs forwardScalar. Both paths are
    /// bit-identical by construction.
    void forward(std::uint64_t* values) const;

    /// In-place inverse negacyclic NTT (scrambled -> natural order).
    /// Harvey lazy reduction with the n^-1 scaling fused into the last
    /// stage; output fully reduced to [0, p). Dispatch point like
    /// forward().
    void inverse(std::uint64_t* values) const;

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

  public:
    /// Memoized n^-1 mod p (for tests asserting the memoization
    /// contract; transforms read the private fields directly).
    std::uint64_t invN() const { return inv_n_; }
};

/// \name SIMD dispatch control (process-wide)
/// The AVX2 kernels live in their own -mavx2 translation unit; whether
/// forward()/inverse() route to them is decided per call from three
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
