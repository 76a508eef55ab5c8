/// \file
/// AVX2 kernels — the only translation unit compiled with -mavx2 (see
/// CMakeLists.txt). When CHEHAB_AVX2=OFF this file compiles to the
/// scalar-build stubs at the bottom, so the link interface is identical
/// in both configurations and fhe/ntt.cc can dispatch on a plain
/// runtime flag.
///
/// Eight 32-bit lanes per vector. A Shoup product takes two
/// _mm256_mul_epu32 for the even and odd lanes' high halves (the
/// quotient estimate) and two _mm256_mullo_epi32 for x·w - q·p, which
/// lands in [0, 2p) for any 32-bit x. Conditional subtracts are
/// min_epu32(a, a - b): a - b wraps above a exactly when a < b. Every
/// stage is vectorized: wide stages (t >= 8) pair vectors t words
/// apart under one broadcast twiddle; the t = 4, 2, 1 stages take 16
/// words per iteration and deinterleave the butterfly legs with
/// permute2x128, unpack*_epi64 and shuffle_ps, spreading the twiddles
/// to match with one vpermd each. The forward transform's final
/// normalize and the inverse's n^-1 scaling are fused into their last
/// stages.
///
/// The pointwise kernels: a Shoup product with per-lane companions; the
/// tensor product's lane Barrett on the even and odd lanes' 64-bit
/// products; and the key switch's lazy sums, where one digit's even and
/// odd products with both key entries add into four vectors of 64-bit
/// sums, and a sum hi·2^32 + lo later reduces as two Shoup products,
/// hi·(2^32 mod p) and lo·1.
///
/// The mod-switch drop's two passes: eight coefficients' centered δ0
/// and u = -δ0·q_last^-1 mod t (signed compares pick the centered
/// words, one Shoup product mod t forms u), then per surviving prime
/// two broadcast Shoup products, q_last·u and the rescale by the
/// folded factor.
#include "fhe/ntt_simd.h"

#include "support/error.h"

#if defined(CHEHAB_HAVE_AVX2)

#include <immintrin.h>

namespace chehab::fhe::simd {

namespace {

using Vec = __m256i;

inline Vec
load(const std::uint32_t* src)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
}

inline void
store(std::uint32_t* dst, Vec v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
}

/// a - b in the lanes where a >= b, else a.
inline Vec
csub(Vec a, Vec b)
{
    return _mm256_min_epu32(a, _mm256_sub_epi32(a, b));
}

/// The same on 64-bit lanes holding values below 2^63: a - b goes
/// negative exactly when a < b, and its sign bit picks a back.
inline Vec
csub64(Vec a, Vec b)
{
    const Vec d = _mm256_sub_epi64(a, b);
    return _mm256_castpd_si256(
        _mm256_blendv_pd(_mm256_castsi256_pd(d), _mm256_castsi256_pd(a),
                         _mm256_castsi256_pd(d)));
}

/// Twiddle lanes with their Shoup companions; ws_odd holds the odd
/// lanes' companions in the even 32-bit slots, where _mm256_mul_epu32
/// reads them.
struct Twiddle
{
    Vec w;
    Vec ws;
    Vec ws_odd;
};

/// One twiddle in every lane.
inline Twiddle
broadcast(std::uint32_t w, std::uint32_t ws)
{
    const Vec vws = _mm256_set1_epi32(static_cast<int>(ws));
    return {_mm256_set1_epi32(static_cast<int>(w)), vws, vws};
}

/// The eight twiddles from index \p at, permuted into lane order by
/// \p idx (the tail stages' deinterleaved leg order).
inline Twiddle
spread(const std::uint32_t* w, const std::uint32_t* ws, std::size_t at,
       Vec idx)
{
    const Vec vws = _mm256_permutevar8x32_epi32(load(ws + at), idx);
    return {_mm256_permutevar8x32_epi32(load(w + at), idx), vws,
            _mm256_srli_epi64(vws, 32)};
}

/// x·w mod p up to one p: in [0, 2p) for any 32-bit x.
inline Vec
shoup(Vec x, const Twiddle& t, Vec p)
{
    const Vec q_even = _mm256_srli_epi64(_mm256_mul_epu32(x, t.ws), 32);
    const Vec q_odd = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), t.ws_odd);
    const Vec q = _mm256_blend_epi32(q_even, q_odd, 0xAA);
    return _mm256_sub_epi32(_mm256_mullo_epi32(x, t.w),
                            _mm256_mullo_epi32(q, p));
}

/// Cooley-Tukey butterfly (u, x) -> (u + xw, u - xw), legs in [0, 2p).
inline void
butterflyCt(Vec& u, Vec& x, const Twiddle& t, Vec p)
{
    const Vec a = csub(u, p);
    const Vec v = csub(shoup(x, t, p), p);
    u = _mm256_add_epi32(a, v);
    x = _mm256_add_epi32(_mm256_sub_epi32(a, v), p);
}

/// Gentleman-Sande butterfly (u, v) -> (u + v, (u - v)w), legs in
/// [0, 2p).
inline void
butterflyGs(Vec& u, Vec& v, const Twiddle& t, Vec p)
{
    const Vec a = csub(u, p);
    const Vec b = csub(v, p);
    u = _mm256_add_epi32(a, b);
    v = shoup(_mm256_add_epi32(_mm256_sub_epi32(a, b), p), t, p);
}

// The tail stages' deinterleave maps: 16 words as two vectors a, b,
// their u legs gathered into one vector and their x legs into another,
// and back. Each stage's twiddle spread index matches its gathered
// order.

/// t = 4: [u u u u x x x x] per group; one group per 128-bit half.
inline void
split4(Vec a, Vec b, Vec& u, Vec& x)
{
    u = _mm256_permute2x128_si256(a, b, 0x20);
    x = _mm256_permute2x128_si256(a, b, 0x31);
}

inline void
join4(Vec u, Vec x, Vec& a, Vec& b)
{
    a = _mm256_permute2x128_si256(u, x, 0x20);
    b = _mm256_permute2x128_si256(u, x, 0x31);
}

/// t = 2: [u u x x] per group; the u pairs gather in the order
/// i, i+2, i+1, i+3.
inline void
split2(Vec a, Vec b, Vec& u, Vec& x)
{
    u = _mm256_unpacklo_epi64(a, b);
    x = _mm256_unpackhi_epi64(a, b);
}

inline void
join2(Vec u, Vec x, Vec& a, Vec& b)
{
    a = _mm256_unpacklo_epi64(u, x);
    b = _mm256_unpackhi_epi64(u, x);
}

/// t = 1: [u x] per group; the u words gather in the order
/// i, i+1, i+4, i+5, i+2, i+3, i+6, i+7.
inline void
split1(Vec a, Vec b, Vec& u, Vec& x)
{
    const __m256 fa = _mm256_castsi256_ps(a);
    const __m256 fb = _mm256_castsi256_ps(b);
    u = _mm256_castps_si256(
        _mm256_shuffle_ps(fa, fb, _MM_SHUFFLE(2, 0, 2, 0)));
    x = _mm256_castps_si256(
        _mm256_shuffle_ps(fa, fb, _MM_SHUFFLE(3, 1, 3, 1)));
}

inline void
join1(Vec u, Vec x, Vec& a, Vec& b)
{
    a = _mm256_unpacklo_epi32(u, x);
    b = _mm256_unpackhi_epi32(u, x);
}

inline Vec
spreadIndex4()
{
    return _mm256_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1);
}

inline Vec
spreadIndex2()
{
    return _mm256_setr_epi32(0, 0, 2, 2, 1, 1, 3, 3);
}

inline Vec
spreadIndex1()
{
    return _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
}

} // namespace

bool
avx2CompiledIn()
{
    return true;
}

void
forward(std::uint32_t* values, const Tables32& tables)
{
    const std::size_t n = static_cast<std::size_t>(tables.n);
    CHEHAB_ASSERT(n >= 16 && (n & (n - 1)) == 0,
                  "the 8-lane NTT needs n >= 16");
    const Vec p = _mm256_set1_epi32(static_cast<int>(tables.p));
    const std::uint32_t* w = tables.root_powers.data();
    const std::uint32_t* ws = tables.root_powers_shoup.data();

    std::size_t t = n >> 1;
    std::size_t m = 1;
    for (; t >= 8; t >>= 1, m <<= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const Twiddle tw = broadcast(w[m + i], ws[m + i]);
            std::uint32_t* group = values + 2 * i * t;
            for (std::size_t j = 0; j < t; j += 8) {
                Vec u = load(group + j);
                Vec x = load(group + j + t);
                butterflyCt(u, x, tw, p);
                store(group + j, u);
                store(group + j + t, x);
            }
        }
    }
    // The three tail stages: m = n/8, n/4, n/2 groups of 8, 4, 2 words.
    const Vec idx4 = spreadIndex4();
    for (std::size_t i = 0; i < m; i += 2) {
        std::uint32_t* at = values + 8 * i;
        Vec u, x, a, b;
        split4(load(at), load(at + 8), u, x);
        butterflyCt(u, x, spread(w, ws, m + i, idx4), p);
        join4(u, x, a, b);
        store(at, a);
        store(at + 8, b);
    }
    m <<= 1;
    const Vec idx2 = spreadIndex2();
    for (std::size_t i = 0; i < m; i += 4) {
        std::uint32_t* at = values + 4 * i;
        Vec u, x, a, b;
        split2(load(at), load(at + 8), u, x);
        butterflyCt(u, x, spread(w, ws, m + i, idx2), p);
        join2(u, x, a, b);
        store(at, a);
        store(at + 8, b);
    }
    m <<= 1;
    const Vec idx1 = spreadIndex1();
    for (std::size_t i = 0; i < m; i += 8) {
        std::uint32_t* at = values + 2 * i;
        Vec u, x, a, b;
        split1(load(at), load(at + 8), u, x);
        butterflyCt(u, x, spread(w, ws, m + i, idx1), p);
        join1(csub(u, p), csub(x, p), a, b);
        store(at, a);
        store(at + 8, b);
    }
}

void
inverse(std::uint32_t* values, const Tables32& tables)
{
    const std::size_t n = static_cast<std::size_t>(tables.n);
    CHEHAB_ASSERT(n >= 16 && (n & (n - 1)) == 0,
                  "the 8-lane NTT needs n >= 16");
    const Vec p = _mm256_set1_epi32(static_cast<int>(tables.p));
    const std::uint32_t* w = tables.inv_root_powers.data();
    const std::uint32_t* ws = tables.inv_root_powers_shoup.data();

    // The three head stages: m = n/2, n/4, n/8 groups of 2, 4, 8 words.
    std::size_t m = n >> 1;
    const Vec idx1 = spreadIndex1();
    for (std::size_t i = 0; i < m; i += 8) {
        std::uint32_t* at = values + 2 * i;
        Vec u, v, a, b;
        split1(load(at), load(at + 8), u, v);
        butterflyGs(u, v, spread(w, ws, m + i, idx1), p);
        join1(u, v, a, b);
        store(at, a);
        store(at + 8, b);
    }
    m >>= 1;
    const Vec idx2 = spreadIndex2();
    for (std::size_t i = 0; i < m; i += 4) {
        std::uint32_t* at = values + 4 * i;
        Vec u, v, a, b;
        split2(load(at), load(at + 8), u, v);
        butterflyGs(u, v, spread(w, ws, m + i, idx2), p);
        join2(u, v, a, b);
        store(at, a);
        store(at + 8, b);
    }
    m >>= 1;
    const Vec idx4 = spreadIndex4();
    for (std::size_t i = 0; i < m; i += 2) {
        std::uint32_t* at = values + 8 * i;
        Vec u, v, a, b;
        split4(load(at), load(at + 8), u, v);
        butterflyGs(u, v, spread(w, ws, m + i, idx4), p);
        join4(u, v, a, b);
        store(at, a);
        store(at + 8, b);
    }
    std::size_t t = 8;
    for (m >>= 1; m > 1; m >>= 1, t <<= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const Twiddle tw = broadcast(w[m + i], ws[m + i]);
            std::uint32_t* group = values + 2 * i * t;
            for (std::size_t j = 0; j < t; j += 8) {
                Vec u = load(group + j);
                Vec v = load(group + j + t);
                butterflyGs(u, v, tw, p);
                store(group + j, u);
                store(group + j + t, v);
            }
        }
    }
    // Last stage (m = 1, t = n/2) fused with the n^-1 scaling: the even
    // leg multiplies by n^-1, the odd leg by n^-1·ψ^-1, fully reduced.
    const Twiddle even = broadcast(tables.inv_n, tables.inv_n_shoup);
    const Twiddle odd = broadcast(tables.inv_n_w, tables.inv_n_w_shoup);
    for (std::size_t j = 0; j < t; j += 8) {
        const Vec a = csub(load(values + j), p);
        const Vec b = csub(load(values + j + t), p);
        store(values + j, csub(shoup(_mm256_add_epi32(a, b), even, p), p));
        store(values + j + t,
              csub(shoup(_mm256_add_epi32(_mm256_sub_epi32(a, b), p), odd,
                         p),
                   p));
    }
}

void
pointwiseShoup(std::uint32_t* x, const std::uint32_t* w,
               const std::uint32_t* w_shoup, const Tables32& tables)
{
    const Vec p = _mm256_set1_epi32(static_cast<int>(tables.p));
    for (int i = 0; i < tables.n; i += 8) {
        const Vec ws = load(w_shoup + i);
        const Twiddle tw{load(w + i), ws, _mm256_srli_epi64(ws, 32)};
        store(x + i, csub(shoup(load(x + i), tw, p), p));
    }
}

void
tensor(std::uint32_t* a0, std::uint32_t* a1, const std::uint32_t* b0,
       std::uint32_t* b1, const Tables32& tables)
{
    const Vec p = _mm256_set1_epi32(static_cast<int>(tables.p));
    const Vec p64 = _mm256_set1_epi64x(tables.p);
    const Vec ratio =
        _mm256_set1_epi32(static_cast<int>(tables.barrett_ratio));
    const __m128i down = _mm_cvtsi32_si128(tables.barrett_shift - 1);
    const __m128i up = _mm_cvtsi32_si128(tables.barrett_shift + 1);
    // v < p^2 < 2^(2s) per 64-bit lane: q = ((v >> (s-1))·r) >> (s+1)
    // undershoots v / p by at most 2, so v - q·p < 3p.
    const auto reduce = [&](Vec v) {
        const Vec q = _mm256_srl_epi64(
            _mm256_mul_epu32(_mm256_srl_epi64(v, down), ratio), up);
        const Vec r = _mm256_sub_epi64(v, _mm256_mul_epu32(q, p));
        return csub64(csub64(r, p64), p64);
    };
    const auto mul = [&](Vec x, Vec y) {
        const Vec even = reduce(_mm256_mul_epu32(x, y));
        const Vec odd = reduce(_mm256_mul_epu32(_mm256_srli_epi64(x, 32),
                                                _mm256_srli_epi64(y, 32)));
        return _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
    };
    for (int i = 0; i < tables.n; i += 8) {
        const Vec x0 = load(a0 + i);
        const Vec x1 = load(a1 + i);
        const Vec y0 = load(b0 + i);
        const Vec y1 = load(b1 + i);
        store(a0 + i, mul(x0, y0));
        store(b1 + i,
              csub(_mm256_add_epi32(mul(x0, y1), mul(x1, y0)), p));
        store(a1 + i, mul(x1, y1));
    }
}

namespace {

/// Both lazy sums, block by block: a block of eight coefficients is two
/// vectors of four 64-bit sums, the even coefficients' and then the odd
/// ones'.
template <bool kFresh>
void
accumulateBlocks(std::uint32_t* sums0, std::uint32_t* sums1,
                 const std::uint32_t* x, const std::uint32_t* y0,
                 const std::uint32_t* y1, int n)
{
    for (int i = 0; i < n; i += 8) {
        const Vec a = load(x + i);
        const Vec a_odd = _mm256_srli_epi64(a, 32);
        const Vec b = load(y0 + i);
        const Vec c = load(y1 + i);
        Vec even0 = _mm256_mul_epu32(a, b);
        Vec odd0 = _mm256_mul_epu32(a_odd, _mm256_srli_epi64(b, 32));
        Vec even1 = _mm256_mul_epu32(a, c);
        Vec odd1 = _mm256_mul_epu32(a_odd, _mm256_srli_epi64(c, 32));
        std::uint32_t* s0 = sums0 + 2 * i;
        std::uint32_t* s1 = sums1 + 2 * i;
        if (!kFresh) {
            even0 = _mm256_add_epi64(even0, load(s0));
            odd0 = _mm256_add_epi64(odd0, load(s0 + 8));
            even1 = _mm256_add_epi64(even1, load(s1));
            odd1 = _mm256_add_epi64(odd1, load(s1 + 8));
        }
        store(s0, even0);
        store(s0 + 8, odd0);
        store(s1, even1);
        store(s1 + 8, odd1);
    }
}

} // namespace

void
accumulateProducts(std::uint32_t* sums0, std::uint32_t* sums1,
                   const std::uint32_t* x, const std::uint32_t* y0,
                   const std::uint32_t* y1, bool fresh,
                   const Tables32& tables)
{
    if (fresh) {
        accumulateBlocks<true>(sums0, sums1, x, y0, y1, tables.n);
    } else {
        accumulateBlocks<false>(sums0, sums1, x, y0, y1, tables.n);
    }
}

void
reduceSums(std::uint32_t* sums, bool compact, const Tables32& tables)
{
    const Vec p = _mm256_set1_epi32(static_cast<int>(tables.p));
    const Vec two32 = _mm256_set1_epi32(static_cast<int>(tables.two32));
    const Vec two32_shoup =
        _mm256_set1_epi32(static_cast<int>(tables.two32_shoup));
    const Vec one_shoup =
        _mm256_set1_epi32(static_cast<int>(tables.one_shoup));
    const Vec low = _mm256_set1_epi64x(0xFFFFFFFF);
    // A sum hi·2^32 + lo as hi·(2^32 mod p) + lo, each term a Shoup
    // product in [0, 2p) (any 32-bit operand), in the even 32-bit slots.
    const auto reduce = [&](Vec v) {
        const Vec hi = _mm256_srli_epi64(v, 32);
        const Vec q_hi =
            _mm256_srli_epi64(_mm256_mul_epu32(hi, two32_shoup), 32);
        const Vec r_hi = _mm256_sub_epi32(_mm256_mul_epu32(hi, two32),
                                          _mm256_mul_epu32(q_hi, p));
        const Vec q_lo =
            _mm256_srli_epi64(_mm256_mul_epu32(v, one_shoup), 32);
        const Vec r_lo = _mm256_sub_epi32(v, _mm256_mul_epu32(q_lo, p));
        return csub(_mm256_add_epi32(csub(r_hi, p), csub(r_lo, p)), p);
    };
    for (int i = 0; i < tables.n; i += 8) {
        // Block i's 16 words are read before its 8 compact words are
        // written below them, so compacting in place is safe.
        const Vec even = reduce(load(sums + 2 * i));
        const Vec odd = reduce(load(sums + 2 * i + 8));
        if (compact) {
            store(sums + i, _mm256_blend_epi32(
                                even, _mm256_slli_epi64(odd, 32), 0xAA));
        } else {
            store(sums + 2 * i, _mm256_and_si256(even, low));
            store(sums + 2 * i + 8, _mm256_and_si256(odd, low));
        }
    }
}

void
dropCorrection(const std::uint32_t* last, std::uint32_t q_last,
               std::uint32_t offset, std::uint32_t inv_q_last,
               std::uint32_t inv_q_last_shoup, std::uint32_t* delta0,
               std::uint32_t* u, const Tables32& tables)
{
    const Vec t = _mm256_set1_epi32(static_cast<int>(tables.p));
    const Vec half_t = _mm256_set1_epi32(static_cast<int>(tables.p / 2));
    const Vec ql = _mm256_set1_epi32(static_cast<int>(q_last));
    const Vec half_ql = _mm256_set1_epi32(static_cast<int>(q_last / 2));
    const Vec off = _mm256_set1_epi32(static_cast<int>(offset));
    const Twiddle inv = broadcast(inv_q_last, inv_q_last_shoup);
    for (int i = 0; i < tables.n; i += 8) {
        // Residues below 2^31 compare correctly as signed words.
        const Vec r = load(last + i);
        const Vec d0 = _mm256_sub_epi32(
            r, _mm256_and_si256(_mm256_cmpgt_epi32(r, half_ql), ql));
        const Vec v = csub(shoup(_mm256_sub_epi32(off, d0), inv, t), t);
        const Vec upper = _mm256_cmpgt_epi32(v, half_t);
        store(delta0 + i, d0);
        store(u + i, _mm256_sub_epi32(v, _mm256_and_si256(upper, t)));
    }
}

void
dropRescale(std::uint32_t* c, const std::uint32_t* delta0,
            const std::uint32_t* u, std::uint32_t q_last_mod,
            std::uint32_t q_last_mod_shoup, std::uint32_t factor,
            std::uint32_t factor_shoup, const Tables32& tables)
{
    const Vec p = _mm256_set1_epi32(static_cast<int>(tables.p));
    const Twiddle ql = broadcast(q_last_mod, q_last_mod_shoup);
    const Twiddle f = broadcast(factor, factor_shoup);
    // A negative word's sign mask adds p once.
    const auto lift = [&](Vec v) {
        return _mm256_add_epi32(
            v, _mm256_and_si256(_mm256_srai_epi32(v, 31), p));
    };
    for (int i = 0; i < tables.n; i += 8) {
        const Vec d = csub(
            _mm256_add_epi32(lift(load(delta0 + i)),
                             csub(shoup(lift(load(u + i)), ql, p), p)),
            p);
        const Vec x = _mm256_add_epi32(_mm256_sub_epi32(load(c + i), d), p);
        store(c + i, csub(shoup(x, f, p), p));
    }
}

} // namespace chehab::fhe::simd

#else // !CHEHAB_HAVE_AVX2

namespace chehab::fhe::simd {

bool
avx2CompiledIn()
{
    return false;
}

void
forward(std::uint32_t*, const Tables32&)
{
    CHEHAB_ASSERT(false, "AVX2 kernels not compiled in");
}

void
inverse(std::uint32_t*, const Tables32&)
{
    CHEHAB_ASSERT(false, "AVX2 kernels not compiled in");
}

void
pointwiseShoup(std::uint32_t*, const std::uint32_t*, const std::uint32_t*,
               const Tables32&)
{
    CHEHAB_ASSERT(false, "AVX2 kernels not compiled in");
}

void
tensor(std::uint32_t*, std::uint32_t*, const std::uint32_t*,
       std::uint32_t*, const Tables32&)
{
    CHEHAB_ASSERT(false, "AVX2 kernels not compiled in");
}

void
accumulateProducts(std::uint32_t*, std::uint32_t*, const std::uint32_t*,
                   const std::uint32_t*, const std::uint32_t*, bool,
                   const Tables32&)
{
    CHEHAB_ASSERT(false, "AVX2 kernels not compiled in");
}

void
reduceSums(std::uint32_t*, bool, const Tables32&)
{
    CHEHAB_ASSERT(false, "AVX2 kernels not compiled in");
}

void
dropCorrection(const std::uint32_t*, std::uint32_t, std::uint32_t,
               std::uint32_t, std::uint32_t, std::uint32_t*, std::uint32_t*,
               const Tables32&)
{
    CHEHAB_ASSERT(false, "AVX2 kernels not compiled in");
}

void
dropRescale(std::uint32_t*, const std::uint32_t*, const std::uint32_t*,
            std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t,
            const Tables32&)
{
    CHEHAB_ASSERT(false, "AVX2 kernels not compiled in");
}

} // namespace chehab::fhe::simd

#endif // CHEHAB_HAVE_AVX2
