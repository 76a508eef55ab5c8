/// \file
/// Internal interface between NttTables (fhe/ntt.cc) and the AVX2
/// kernels (fhe/ntt_avx2.cc). Not installed; nothing outside fhe/
/// should include this — callers go through NttTables, which dispatches
/// at runtime.
///
/// One vector kernel: eight 32-bit lanes, for every prime below 2^31
/// and n >= 16. Every leg stays in [0, 2p) between stages, which
/// 2p < 2^32 keeps inside a lane; twiddles carry 32-bit Shoup
/// companions ⌊w·2^32/p⌋. Harvey's lazy [0, 4p) legs would need
/// p < 2^30 and leave 31-bit chains (validate()'s ceiling) to the
/// scalar path; [0, 2p) legs cost one more conditional subtract per
/// butterfly and serve every prime, and their [0, 2p) input domain
/// takes a key-switch digit (below 2^prime_bits < 2p) with no
/// reduction first. The transforms run the scalar path's stage
/// schedule and twiddle order and end fully reduced, so their outputs
/// equal the scalar path's word for word: a fully reduced residue does
/// not depend on the lane width that produced it (test_fhe_ntt_simd
/// machine-checks this).
#pragma once

#include <cstdint>
#include <vector>

namespace chehab::fhe::simd {

/// True when the library was built with the AVX2 kernel TU
/// (CHEHAB_AVX2=ON). Constant per binary.
bool avx2CompiledIn();

/// The 32-bit tables of one (n, p) pair with p < 2^31 and n >= 16, in
/// NttTables' layout: bit-reversed powers indexed m + i per stage.
struct Tables32
{
    int n = 0;
    std::uint32_t p = 0;
    std::vector<std::uint32_t> root_powers;
    std::vector<std::uint32_t> root_powers_shoup; ///< ⌊w·2^32/p⌋.
    std::vector<std::uint32_t> inv_root_powers;
    std::vector<std::uint32_t> inv_root_powers_shoup;
    /// n^-1 and n^-1·ψ^-1 (the fused last inverse stage's two legs).
    std::uint32_t inv_n = 0;
    std::uint32_t inv_n_shoup = 0;
    std::uint32_t inv_n_w = 0;
    std::uint32_t inv_n_w_shoup = 0;
    /// Lane Barrett for mulAccumulate: s = bit length of p and
    /// r = ⌊2^(2s)/p⌋, which is below 2^32.
    int barrett_shift = 0;
    std::uint32_t barrett_ratio = 0;
};

/// In-place forward negacyclic NTT (natural -> scrambled order).
/// Input words in [0, 2p), output fully reduced to [0, p).
void forward(std::uint32_t* values, const Tables32& tables);

/// In-place inverse negacyclic NTT (scrambled -> natural order) with
/// the n^-1 scaling fused into the last stage. Input words in [0, 2p),
/// output fully reduced to [0, p).
void inverse(std::uint32_t* values, const Tables32& tables);

/// acc[i] = (acc[i] + x[i]·y[i]) mod p for i < n, every operand in
/// [0, p): the 64-bit products reduce by lane Barrett and two
/// conditional subtracts.
void mulAccumulate(std::uint32_t* acc, const std::uint32_t* x,
                   const std::uint32_t* y, const Tables32& tables);

/// dst[i] = src[i] with src[i] in [0, 4p) brought into [0, 2p), for
/// i < n (n a multiple of 8).
void narrow(const std::uint64_t* src, std::uint32_t* dst, int n,
            std::uint32_t p);

/// dst[i] = src[i] zero-extended, for i < n (n a multiple of 8).
void widen(const std::uint32_t* src, std::uint64_t* dst, int n);

} // namespace chehab::fhe::simd
