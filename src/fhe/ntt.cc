#include "fhe/ntt.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "fhe/ntt_simd.h"
#include "support/error.h"

namespace chehab::fhe {

namespace {

/// Reverse the low \p bits bits of \p value.
std::uint32_t
reverseBits(std::uint32_t value, int bits)
{
    std::uint32_t result = 0;
    for (int i = 0; i < bits; ++i) {
        result = (result << 1) | ((value >> i) & 1);
    }
    return result;
}

bool
cpuHasAvx2()
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/// -1 = unset (resolve to simdSupported()), else 0/1.
std::atomic<int> simd_enabled_override{-1};

/// The scalar path: the vector kernel's butterflies one word at a time,
/// every leg in [0, 2p) (see fhe/ntt_simd.h). Any n, including n = 1.
void
scalarForward(std::uint32_t* values, const simd::Tables32& tables)
{
    const std::uint32_t p = tables.p;
    const auto n = static_cast<std::size_t>(tables.n);
    const std::uint32_t* w = tables.root_powers.data();
    const std::uint32_t* ws = tables.root_powers_shoup.data();
    // Cooley-Tukey: (u, x) -> (u + xw, u - xw + p) from u and xw
    // reduced to [0, p).
    std::size_t t = n >> 1;
    for (std::size_t m = 1; m < n; m <<= 1, t >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint32_t wi = w[m + i];
            const std::uint32_t wsi = ws[m + i];
            std::uint32_t* group = values + 2 * i * t;
            for (std::size_t j = 0; j < t; ++j) {
                const std::uint32_t a = csub32(group[j], p);
                const std::uint32_t v = mulModShoup32(group[j + t], wi, wsi, p);
                group[j] = a + v;
                group[j + t] = a - v + p;
            }
        }
    }
    for (std::size_t j = 0; j < n; ++j) values[j] = csub32(values[j], p);
}

void
scalarInverse(std::uint32_t* values, const simd::Tables32& tables)
{
    const std::uint32_t p = tables.p;
    const auto n = static_cast<std::size_t>(tables.n);
    const std::uint32_t* w = tables.inv_root_powers.data();
    const std::uint32_t* ws = tables.inv_root_powers_shoup.data();
    // Gentleman-Sande: (u, v) -> (u + v, (u - v + p)w) from u and v
    // reduced to [0, p), the product left in [0, 2p).
    std::size_t t = 1;
    for (std::size_t m = n >> 1; m > 1; m >>= 1, t <<= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint32_t wi = w[m + i];
            const std::uint32_t wsi = ws[m + i];
            std::uint32_t* group = values + 2 * i * t;
            for (std::size_t j = 0; j < t; ++j) {
                const std::uint32_t a = csub32(group[j], p);
                const std::uint32_t b = csub32(group[j + t], p);
                group[j] = a + b;
                group[j + t] = mulModShoupLazy32(a - b + p, wi, wsi, p);
            }
        }
    }
    // Last stage (m = 1) fused with the n^-1 scaling: the even leg
    // multiplies by n^-1, the odd leg by n^-1·ψ^-1, fully reduced.
    const std::size_t half = n >> 1;
    for (std::size_t j = 0; j < half; ++j) {
        const std::uint32_t a = csub32(values[j], p);
        const std::uint32_t b = csub32(values[j + half], p);
        values[j] = mulModShoup32(a + b, tables.inv_n, tables.inv_n_shoup, p);
        values[j + half] = mulModShoup32(a - b + p, tables.inv_n_w,
                                         tables.inv_n_w_shoup, p);
    }
    // n = 1 has no butterfly, and n^-1 = 1.
    if (n == 1) values[0] = csub32(values[0], p);
}

/// A copy of \p n words in [0, 4p) brought into [0, 2p), in a per-thread
/// buffer kept for the thread's next call.
std::uint32_t*
narrowed(const std::uint64_t* values, int n, std::uint64_t p)
{
    thread_local std::vector<std::uint32_t> words;
    if (words.size() < static_cast<std::size_t>(n)) {
        words.resize(static_cast<std::size_t>(n));
    }
    for (int i = 0; i < n; ++i) {
        words[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(
            std::min(values[i], values[i] - 2 * p));
    }
    return words.data();
}

} // namespace

bool
simdCompiledIn()
{
    return simd::avx2CompiledIn();
}

bool
simdSupported()
{
    static const bool supported = simdCompiledIn() && cpuHasAvx2();
    return supported;
}

void
setSimdEnabled(bool enabled)
{
    // Clamp to supported: forcing SIMD on a scalar build or non-AVX2
    // CPU must stay a no-op rather than dispatch into stubs.
    simd_enabled_override.store(enabled && simdSupported() ? 1 : 0,
                                std::memory_order_relaxed);
}

bool
simdEnabled()
{
    const int v = simd_enabled_override.load(std::memory_order_relaxed);
    return v < 0 ? simdSupported() : v != 0;
}

NttTables::NttTables(int n, std::uint64_t p) : barrett_(p)
{
    CHEHAB_ASSERT(n >= 1 && (n & (n - 1)) == 0, "n must be a power of two");
    CHEHAB_ASSERT((p - 1) % (2 * static_cast<std::uint64_t>(n)) == 0,
                  "p must be NTT-friendly");
    // Legs in [0, 2p) must fit a 32-bit word.
    CHEHAB_ASSERT(p < (1ULL << 31), "32-bit NTT words need p < 2^31");
    int log_n = 0;
    while ((1 << log_n) < n) ++log_n;

    const std::uint64_t psi =
        findPrimitiveRoot(2 * static_cast<std::uint64_t>(n), p);
    const std::uint64_t psi_inv = invMod(psi, p);
    std::vector<std::uint64_t> natural(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> inv_natural(static_cast<std::size_t>(n));
    std::uint64_t power = 1;
    std::uint64_t inv_power = 1;
    for (int i = 0; i < n; ++i) {
        natural[static_cast<std::size_t>(i)] = power;
        inv_natural[static_cast<std::size_t>(i)] = inv_power;
        power = mulMod(power, psi, p);
        inv_power = mulMod(inv_power, psi_inv, p);
    }
    tables_.n = n;
    tables_.p = static_cast<std::uint32_t>(p);
    for (int i = 0; i < n; ++i) {
        const std::uint32_t rev =
            reverseBits(static_cast<std::uint32_t>(i), log_n);
        tables_.root_powers.push_back(
            static_cast<std::uint32_t>(natural[rev]));
        tables_.root_powers_shoup.push_back(
            shoupPrecompute32(natural[rev], p));
        tables_.inv_root_powers.push_back(
            static_cast<std::uint32_t>(inv_natural[rev]));
        tables_.inv_root_powers_shoup.push_back(
            shoupPrecompute32(inv_natural[rev], p));
    }
    const std::uint64_t inv_n = invMod(static_cast<std::uint64_t>(n), p);
    tables_.inv_n = static_cast<std::uint32_t>(inv_n);
    tables_.inv_n_shoup = shoupPrecompute32(inv_n, p);
    if (n > 1) {
        const std::uint64_t inv_n_w =
            mulMod(inv_n, tables_.inv_root_powers[1], p);
        tables_.inv_n_w = static_cast<std::uint32_t>(inv_n_w);
        tables_.inv_n_w_shoup = shoupPrecompute32(inv_n_w, p);
    }
    int s = 0;
    while ((p >> s) != 0) ++s;
    tables_.barrett_shift = s;
    tables_.barrett_ratio =
        static_cast<std::uint32_t>((1ULL << (2 * s)) / p);
    const std::uint64_t two32 = (1ULL << 32) % p;
    tables_.two32 = static_cast<std::uint32_t>(two32);
    tables_.two32_shoup = shoupPrecompute32(two32, p);
    tables_.one_shoup = shoupPrecompute32(1, p);
    lazy_terms_ = static_cast<int>(std::min<std::uint64_t>(
        ~std::uint64_t{0} / ((p - 1) * (p - 1)),
        std::numeric_limits<int>::max()));
}

bool
NttTables::vectorized() const
{
    return tables_.n >= 16 && simdEnabled();
}

void
NttTables::forward(std::uint32_t* values) const
{
    if (vectorized()) {
        simd::forward(values, tables_);
    } else {
        scalarForward(values, tables_);
    }
}

void
NttTables::inverse(std::uint32_t* values) const
{
    if (vectorized()) {
        simd::inverse(values, tables_);
    } else {
        scalarInverse(values, tables_);
    }
}

void
NttTables::pointwiseShoup(std::uint32_t* x, const std::uint32_t* w,
                          const std::uint32_t* w_shoup) const
{
    if (vectorized()) {
        simd::pointwiseShoup(x, w, w_shoup, tables_);
        return;
    }
    for (int i = 0; i < tables_.n; ++i) {
        x[i] = mulModShoup32(x[i], w[i], w_shoup[i], tables_.p);
    }
}

void
NttTables::tensor(std::uint32_t* a0, std::uint32_t* a1,
                  const std::uint32_t* b0, std::uint32_t* b1) const
{
    if (vectorized()) {
        simd::tensor(a0, a1, b0, b1, tables_);
        return;
    }
    for (int i = 0; i < tables_.n; ++i) {
        const std::uint64_t x0 = a0[i];
        const std::uint64_t x1 = a1[i];
        const std::uint64_t y0 = b0[i];
        const std::uint64_t y1 = b1[i];
        a0[i] = static_cast<std::uint32_t>(barrett_.mulMod(x0, y0));
        b1[i] = static_cast<std::uint32_t>(addMod(
            barrett_.mulMod(x0, y1), barrett_.mulMod(x1, y0), tables_.p));
        a1[i] = static_cast<std::uint32_t>(barrett_.mulMod(x1, y1));
    }
}

namespace {

/// The 64-bit sum at \p slot of a lazy-sum buffer (two 32-bit words,
/// low first).
std::uint64_t
loadSum(const std::uint32_t* sums, int slot)
{
    std::uint64_t v = 0;
    std::memcpy(&v, sums + 2 * slot, sizeof v);
    return v;
}

void
storeSum(std::uint32_t* sums, int slot, std::uint64_t v)
{
    std::memcpy(sums + 2 * slot, &v, sizeof v);
}

/// The slot of coefficient \p i in the block layout: within each block
/// of eight, the even coefficients' sums come first.
int
sumSlot(int i)
{
    return (i & ~7) + ((i & 1) << 2) + ((i & 7) >> 1);
}

} // namespace

int
NttTables::accumulateProducts(std::uint32_t* sums0, std::uint32_t* sums1,
                              int terms, const std::uint32_t* x,
                              const std::uint32_t* y0,
                              const std::uint32_t* y1) const
{
    CHEHAB_ASSERT(tables_.n >= 8, "lazy sums come in blocks of 8");
    if (terms == lazy_terms_) {
        reduceLazySums(sums0, false);
        reduceLazySums(sums1, false);
        terms = 1;
    }
    const bool fresh = terms == 0;
    if (vectorized()) {
        simd::accumulateProducts(sums0, sums1, x, y0, y1, fresh, tables_);
        return terms + 1;
    }
    for (int i = 0; i < tables_.n; ++i) {
        const int slot = sumSlot(i);
        const std::uint64_t p0 = std::uint64_t{x[i]} * y0[i];
        const std::uint64_t p1 = std::uint64_t{x[i]} * y1[i];
        storeSum(sums0, slot, fresh ? p0 : loadSum(sums0, slot) + p0);
        storeSum(sums1, slot, fresh ? p1 : loadSum(sums1, slot) + p1);
    }
    return terms + 1;
}

void
NttTables::reduceSums(std::uint32_t* sums0, std::uint32_t* sums1) const
{
    CHEHAB_ASSERT(tables_.n >= 8, "lazy sums come in blocks of 8");
    reduceLazySums(sums0, true);
    reduceLazySums(sums1, true);
}

void
NttTables::reduceLazySums(std::uint32_t* sums, bool compact) const
{
    if (vectorized()) {
        simd::reduceSums(sums, compact, tables_);
        return;
    }
    for (int block = 0; block < tables_.n; block += 8) {
        // Read the whole block before compacting it below itself.
        std::uint32_t words[8];
        for (int i = 0; i < 8; ++i) {
            words[i] = static_cast<std::uint32_t>(
                barrett_.reduce(loadSum(sums, sumSlot(block + i))));
        }
        for (int i = 0; i < 8; ++i) {
            if (compact) {
                sums[block + i] = words[i];
            } else {
                storeSum(sums, sumSlot(block + i), words[i]);
            }
        }
    }
}

namespace {

/// A two's-complement word of magnitude below \p p, mod p.
std::uint32_t
liftSigned(std::uint32_t v, std::uint32_t p)
{
    return v + (p & (0U - (v >> 31)));
}

} // namespace

void
NttTables::dropCorrection(const std::uint32_t* last, std::uint32_t q_last,
                          std::uint32_t inv_q_last,
                          std::uint32_t inv_q_last_shoup,
                          std::uint32_t* delta0, std::uint32_t* u) const
{
    const std::uint32_t t = tables_.p;
    const std::uint32_t half_ql = q_last / 2;
    // A multiple of t in [⌊q_last/2⌋, ⌊q_last/2⌋ + t): as |δ0| <=
    // ⌊q_last/2⌋, offset - δ0 is ≡ -δ0 (mod t) and in [0, q_last + t).
    const std::uint32_t offset = (half_ql + t - 1) / t * t;
    if (vectorized()) {
        simd::dropCorrection(last, q_last, offset, inv_q_last,
                             inv_q_last_shoup, delta0, u, tables_);
        return;
    }
    for (int i = 0; i < tables_.n; ++i) {
        const std::uint32_t r = last[i];
        const std::uint32_t d0 =
            r - (q_last & (0U - static_cast<std::uint32_t>(r > half_ql)));
        const std::uint32_t v =
            mulModShoup32(offset - d0, inv_q_last, inv_q_last_shoup, t);
        delta0[i] = d0;
        u[i] = v - (t & (0U - static_cast<std::uint32_t>(v > t / 2)));
    }
}

void
NttTables::dropRescale(std::uint32_t* c, const std::uint32_t* delta0,
                       const std::uint32_t* u, std::uint32_t q_last_mod,
                       std::uint32_t q_last_mod_shoup, std::uint32_t factor,
                       std::uint32_t factor_shoup) const
{
    if (vectorized()) {
        simd::dropRescale(c, delta0, u, q_last_mod, q_last_mod_shoup, factor,
                          factor_shoup, tables_);
        return;
    }
    const std::uint32_t p = tables_.p;
    for (int i = 0; i < tables_.n; ++i) {
        const std::uint32_t d = csub32(
            liftSigned(delta0[i], p) +
                mulModShoup32(liftSigned(u[i], p), q_last_mod,
                              q_last_mod_shoup, p),
            p);
        c[i] = mulModShoup32(c[i] - d + p, factor, factor_shoup, p);
    }
}

void
NttTables::forward(std::uint64_t* values) const
{
    std::uint32_t* words = narrowed(values, tables_.n, tables_.p);
    forward(words);
    std::copy(words, words + tables_.n, values);
}

void
NttTables::inverse(std::uint64_t* values) const
{
    std::uint32_t* words = narrowed(values, tables_.n, tables_.p);
    inverse(words);
    std::copy(words, words + tables_.n, values);
}

namespace {

std::mutex&
tableCacheMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::map<std::pair<int, std::uint64_t>,
         std::shared_ptr<const NttTables>>&
tableCache()
{
    static std::map<std::pair<int, std::uint64_t>,
                    std::shared_ptr<const NttTables>>
        cache;
    return cache;
}

NttTableCacheStats table_cache_stats;

} // namespace

std::shared_ptr<const NttTables>
acquireNttTables(int n, std::uint64_t p)
{
    const std::pair<int, std::uint64_t> key{n, p};
    std::unique_lock<std::mutex> lock(tableCacheMutex());
    auto it = tableCache().find(key);
    if (it != tableCache().end()) {
        ++table_cache_stats.hits;
        return it->second;
    }
    ++table_cache_stats.misses;
    auto tables = std::make_shared<const NttTables>(n, p);
    tableCache().emplace(key, tables);
    return tables;
}

NttTableCacheStats
nttTableCacheStats()
{
    std::unique_lock<std::mutex> lock(tableCacheMutex());
    return table_cache_stats;
}

} // namespace chehab::fhe
