/// \file
/// The table layout NttTables owns, and the internal interface between
/// NttTables (fhe/ntt.cc) and the AVX2 kernels (fhe/ntt_avx2.cc).
/// fhe/ntt.h includes it for the layout; callers go through NttTables,
/// which dispatches at runtime.
///
/// One table set: 32-bit twiddles with 32-bit Shoup companions
/// ⌊w·2^32/p⌋, for primes below 2^31. Both transforms that read it keep
/// every leg in [0, 2p) between stages, which 2p < 2^32 keeps inside a
/// word: the scalar path in fhe/ntt.cc and one vector kernel of eight
/// 32-bit lanes for n >= 16. Harvey's lazy [0, 4p) legs would need
/// p < 2^30 and leave 31-bit chains (validate()'s ceiling) out; [0, 2p)
/// legs cost one more conditional subtract per butterfly and serve every
/// prime, and their [0, 2p) input domain takes a key-switch digit (below
/// 2^prime_bits < 2p) with no reduction first. Both run the same stage
/// schedule and twiddle order and end fully reduced, so their outputs
/// are equal word for word (test_fhe_ntt_simd machine-checks this). A
/// port to other vector widths meets this one contract.
///
/// The pointwise entries (the Shoup product against a cached form, the
/// degree-2 tensor product and the key switch's lazy sums) and the
/// mod-switch drop's two passes likewise come in a vector and a scalar
/// version that return equal words: every result they leave is fully
/// reduced, so how it was reduced cannot show. Lazy sums are 64-bit
/// words stored as little-endian pairs of 32-bit words, in blocks of
/// eight coefficients: a block's 16 words
/// hold the sums of coefficients 0, 2, 4, 6 and then 1, 3, 5, 7, the
/// order in which _mm256_mul_epu32 forms a vector's even and odd
/// products. The scalar path keeps the same layout.
#pragma once

#include <cstdint>
#include <vector>

namespace chehab::fhe::simd {

/// True when the library was built with the AVX2 kernel TU
/// (CHEHAB_AVX2=ON). Constant per binary.
bool avx2CompiledIn();

/// The tables of one (n, p) pair with p < 2^31: bit-reversed powers
/// indexed m + i per stage.
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
    /// Lane Barrett for the tensor product: s = bit length of p and
    /// r = ⌊2^(2s)/p⌋, which is below 2^32.
    int barrett_shift = 0;
    std::uint32_t barrett_ratio = 0;
    /// Lazy-sum reduction: 2^32 mod p and the Shoup companions of it
    /// and of 1, so a sum hi·2^32 + lo reduces as hi·(2^32 mod p) + lo·1.
    std::uint32_t two32 = 0;
    std::uint32_t two32_shoup = 0;
    std::uint32_t one_shoup = 0;
};

/// In-place forward negacyclic NTT (natural -> scrambled order), n >= 16.
/// Input words in [0, 2p), output fully reduced to [0, p).
void forward(std::uint32_t* values, const Tables32& tables);

/// In-place inverse negacyclic NTT (scrambled -> natural order) with
/// the n^-1 scaling fused into the last stage, n >= 16. Input words in
/// [0, 2p), output fully reduced to [0, p).
void inverse(std::uint32_t* values, const Tables32& tables);

/// x[i] = x[i]·w[i] mod p for i < n: any 32-bit x, w in [0, p) with its
/// Shoup companion; fully reduced.
void pointwiseShoup(std::uint32_t* x, const std::uint32_t* w,
                    const std::uint32_t* w_shoup, const Tables32& tables);

/// a0 = a0·b0, b1 = a0·b1 + a1·b0 and a1 = a1·b1 mod p for i < n, every
/// operand in [0, p): the 64-bit products reduce by lane Barrett and two
/// conditional subtracts.
void tensor(std::uint32_t* a0, std::uint32_t* a1, const std::uint32_t* b0,
            std::uint32_t* b1, const Tables32& tables);

/// sums0 += x·y0 and sums1 += x·y1 in the lazy-sum layout, or = when
/// \p fresh, for i < n; operands below 2^32, each sum must stay below
/// 2^64 (the caller counts terms).
void accumulateProducts(std::uint32_t* sums0, std::uint32_t* sums1,
                        const std::uint32_t* x, const std::uint32_t* y0,
                        const std::uint32_t* y1, bool fresh,
                        const Tables32& tables);

/// Every lazy sum of \p sums mod p: written back as a 64-bit sum in
/// the same layout, or with \p compact as n fully reduced 32-bit words
/// in natural order at the front of the buffer.
void reduceSums(std::uint32_t* sums, bool compact, const Tables32& tables);

/// The mod-switch drop's first pass, on the tables of t = tables.p:
/// for i < n, delta0[i] = the centered residue δ0 of last[i] mod
/// q_last and u[i] = -δ0·q_last^-1 mod t, centered, both as
/// two's-complement words. u is one Shoup product on offset - δ0: with
/// offset a multiple of t in [⌊q_last/2⌋, ⌊q_last/2⌋ + t), that word is
/// ≡ -δ0 (mod t) and lies in [0, q_last + t), below 2^32 for q_last
/// and t below 2^31.
void dropCorrection(const std::uint32_t* last, std::uint32_t q_last,
                    std::uint32_t offset, std::uint32_t inv_q_last,
                    std::uint32_t inv_q_last_shoup, std::uint32_t* delta0,
                    std::uint32_t* u, const Tables32& tables);

/// The drop's pass over one surviving prime p: for i < n,
/// δ mod p = (δ0 mod p) + (q_last mod p)·(u mod p), both terms lifted
/// from their two's-complement words (|δ0|, |u| < p), then
/// c[i] = (c[i] - δ)·factor mod p as one Shoup product on
/// c - δ + p < 2p. Fully reduced.
void dropRescale(std::uint32_t* c, const std::uint32_t* delta0,
                 const std::uint32_t* u, std::uint32_t q_last_mod,
                 std::uint32_t q_last_mod_shoup, std::uint32_t factor,
                 std::uint32_t factor_shoup, const Tables32& tables);

} // namespace chehab::fhe::simd
