#include "fhe/ntt.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <utility>

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

/// Per-thread staging buffer for the word-width conversions around a
/// transform: n words of \p Word, kept for the thread's next call.
template <typename Word>
Word*
threadScratch(int n)
{
    thread_local std::vector<Word> scratch;
    if (scratch.size() < static_cast<std::size_t>(n)) {
        scratch.resize(static_cast<std::size_t>(n));
    }
    return scratch.data();
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

NttTables::NttTables(int n, std::uint64_t p)
    : n_(n), p_(p), barrett_(p)
{
    CHEHAB_ASSERT((n & (n - 1)) == 0, "n must be a power of two");
    CHEHAB_ASSERT((p - 1) % (2 * static_cast<std::uint64_t>(n)) == 0,
                  "p must be NTT-friendly");
    // The lazy butterflies keep values in [0, 4p) between stages.
    CHEHAB_ASSERT(p < (1ULL << 62), "lazy reduction needs 4p < 2^64");
    int log_n = 0;
    while ((1 << log_n) < n) ++log_n;

    const std::uint64_t psi =
        findPrimitiveRoot(2 * static_cast<std::uint64_t>(n), p);
    const std::uint64_t psi_inv = invMod(psi, p);

    root_powers_.resize(static_cast<std::size_t>(n));
    inv_root_powers_.resize(static_cast<std::size_t>(n));
    std::uint64_t power = 1;
    std::uint64_t inv_power = 1;
    std::vector<std::uint64_t> natural(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> inv_natural(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        natural[static_cast<std::size_t>(i)] = power;
        inv_natural[static_cast<std::size_t>(i)] = inv_power;
        power = mulMod(power, psi, p);
        inv_power = mulMod(inv_power, psi_inv, p);
    }
    for (int i = 0; i < n; ++i) {
        const std::uint32_t rev =
            reverseBits(static_cast<std::uint32_t>(i), log_n);
        root_powers_[static_cast<std::size_t>(i)] = natural[rev];
        inv_root_powers_[static_cast<std::size_t>(i)] = inv_natural[rev];
    }
    inv_n_ = invMod(static_cast<std::uint64_t>(n), p);

    root_powers_shoup_.resize(static_cast<std::size_t>(n));
    inv_root_powers_shoup_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        root_powers_shoup_[static_cast<std::size_t>(i)] =
            shoupPrecompute(root_powers_[static_cast<std::size_t>(i)], p);
        inv_root_powers_shoup_[static_cast<std::size_t>(i)] =
            shoupPrecompute(inv_root_powers_[static_cast<std::size_t>(i)],
                            p);
    }
    inv_n_shoup_ = shoupPrecompute(inv_n_, p);
    if (n > 1) {
        inv_n_w_ = mulMod(inv_n_, inv_root_powers_[1], p);
        inv_n_w_shoup_ = shoupPrecompute(inv_n_w_, p);
    }

    if (p < (1ULL << 31) && n >= 16) {
        auto t32 = std::make_shared<simd::Tables32>();
        t32->n = n;
        t32->p = static_cast<std::uint32_t>(p);
        const auto words = [p](const std::vector<std::uint64_t>& powers,
                               std::vector<std::uint32_t>& w,
                               std::vector<std::uint32_t>& ws) {
            for (const std::uint64_t power : powers) {
                w.push_back(static_cast<std::uint32_t>(power));
                ws.push_back(shoupPrecompute32(power, p));
            }
        };
        words(root_powers_, t32->root_powers, t32->root_powers_shoup);
        words(inv_root_powers_, t32->inv_root_powers,
              t32->inv_root_powers_shoup);
        t32->inv_n = static_cast<std::uint32_t>(inv_n_);
        t32->inv_n_shoup = shoupPrecompute32(inv_n_, p);
        t32->inv_n_w = static_cast<std::uint32_t>(inv_n_w_);
        t32->inv_n_w_shoup = shoupPrecompute32(inv_n_w_, p);
        int s = 0;
        while ((p >> s) != 0) ++s;
        t32->barrett_shift = s;
        t32->barrett_ratio =
            static_cast<std::uint32_t>((1ULL << (2 * s)) / p);
        tables32_ = std::move(t32);
    }
}

bool
NttTables::vectorized() const
{
    return tables32_ != nullptr && simdEnabled();
}

void
NttTables::forward(std::uint64_t* values) const
{
    if (vectorized()) {
        std::uint32_t* words = threadScratch<std::uint32_t>(n_);
        simd::narrow(values, words, n_, tables32_->p);
        simd::forward(words, *tables32_);
        simd::widen(words, values, n_);
        return;
    }
    forwardScalar(values);
}

void
NttTables::inverse(std::uint64_t* values) const
{
    if (vectorized()) {
        std::uint32_t* words = threadScratch<std::uint32_t>(n_);
        simd::narrow(values, words, n_, tables32_->p);
        simd::inverse(words, *tables32_);
        simd::widen(words, values, n_);
        return;
    }
    inverseScalar(values);
}

void
NttTables::forward(std::uint32_t* values) const
{
    CHEHAB_ASSERT(p_ < (1ULL << 31), "32-bit NTT words need p < 2^31");
    if (vectorized()) {
        simd::forward(values, *tables32_);
        return;
    }
    std::uint64_t* wide = threadScratch<std::uint64_t>(n_);
    std::copy(values, values + n_, wide);
    forwardScalar(wide);
    std::copy(wide, wide + n_, values);
}

void
NttTables::inverse(std::uint32_t* values) const
{
    CHEHAB_ASSERT(p_ < (1ULL << 31), "32-bit NTT words need p < 2^31");
    if (vectorized()) {
        simd::inverse(values, *tables32_);
        return;
    }
    std::uint64_t* wide = threadScratch<std::uint64_t>(n_);
    std::copy(values, values + n_, wide);
    inverseScalar(wide);
    std::copy(wide, wide + n_, values);
}

void
NttTables::mulAccumulate(std::uint32_t* acc, const std::uint32_t* x,
                         const std::uint32_t* y) const
{
    CHEHAB_ASSERT(p_ < (1ULL << 31), "32-bit NTT words need p < 2^31");
    if (vectorized()) {
        simd::mulAccumulate(acc, x, y, *tables32_);
        return;
    }
    for (int i = 0; i < n_; ++i) {
        acc[i] = static_cast<std::uint32_t>(
            addMod(acc[i], barrett_.mulMod(x[i], y[i]), p_));
    }
}

void
NttTables::forwardScalar(std::uint64_t* values) const
{
    if (n_ <= 1) return;
    const std::uint64_t p = p_;
    const std::uint64_t two_p = 2 * p;
    // Cooley-Tukey with Harvey lazy reduction: stage inputs are < 4p,
    // the u leg is conditionally reduced to [0, 2p), and the Shoup
    // multiply of the v leg lands in [0, 2p) for any 64-bit input, so
    // both outputs stay < 4p.
    std::size_t t = static_cast<std::size_t>(n_) >> 1;
    for (std::size_t m = 1; m < static_cast<std::size_t>(n_); m <<= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const std::size_t j2 = j1 + t;
            const std::uint64_t w = root_powers_[m + i];
            const std::uint64_t w_shoup = root_powers_shoup_[m + i];
            for (std::size_t j = j1; j < j2; ++j) {
                std::uint64_t u = values[j];
                if (u >= two_p) u -= two_p;
                const std::uint64_t v =
                    mulModShoupLazy(values[j + t], w, w_shoup, p);
                values[j] = u + v;
                values[j + t] = u + two_p - v;
            }
        }
        t >>= 1;
    }
    // Single normalize pass back to [0, p).
    for (int i = 0; i < n_; ++i) {
        std::uint64_t x = values[i];
        if (x >= two_p) x -= two_p;
        if (x >= p) x -= p;
        values[i] = x;
    }
}

void
NttTables::inverseScalar(std::uint64_t* values) const
{
    if (n_ <= 1) return;
    const std::uint64_t p = p_;
    const std::uint64_t two_p = 2 * p;
    // Gentleman-Sande with lazy reduction: legs stay in [0, 2p)
    // (u + v conditionally reduced, u - v + 2p pushed through the Shoup
    // multiply).
    std::size_t t = 1;
    for (std::size_t m = static_cast<std::size_t>(n_) >> 1; m > 1;
         m >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const std::size_t j2 = j1 + t;
            const std::uint64_t w = inv_root_powers_[m + i];
            const std::uint64_t w_shoup = inv_root_powers_shoup_[m + i];
            for (std::size_t j = j1; j < j2; ++j) {
                const std::uint64_t u = values[j];
                const std::uint64_t v = values[j + t];
                std::uint64_t s = u + v;
                if (s >= two_p) s -= two_p;
                values[j] = s;
                values[j + t] =
                    mulModShoupLazy(u - v + two_p, w, w_shoup, p);
            }
        }
        t <<= 1;
    }
    // Final stage (m == 1) fused with the n^-1 scaling: the even leg
    // multiplies by inv_n, the odd leg by inv_n * w in one Shoup
    // multiply each, already fully reduced — no separate scaling pass.
    for (std::size_t j = 0; j < t; ++j) {
        const std::uint64_t u = values[j];
        const std::uint64_t v = values[j + t];
        values[j] = mulModShoup(u + v, inv_n_, inv_n_shoup_, p);
        values[j + t] =
            mulModShoup(u - v + two_p, inv_n_w_, inv_n_w_shoup_, p);
    }
}

void
NttTables::forwardBaseline(std::uint64_t* values) const
{
    // Cooley-Tukey, Harvey-style loop structure (SEAL's layout), one
    // 128-by-64 division per butterfly — the seed hot path.
    std::size_t t = static_cast<std::size_t>(n_) >> 1;
    for (std::size_t m = 1; m < static_cast<std::size_t>(n_); m <<= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const std::size_t j2 = j1 + t;
            const std::uint64_t w = root_powers_[m + i];
            for (std::size_t j = j1; j < j2; ++j) {
                const std::uint64_t u = values[j];
                const std::uint64_t v = mulMod(values[j + t], w, p_);
                values[j] = addMod(u, v, p_);
                values[j + t] = subMod(u, v, p_);
            }
        }
        t >>= 1;
    }
}

void
NttTables::inverseBaseline(std::uint64_t* values) const
{
    // Gentleman-Sande.
    std::size_t t = 1;
    for (std::size_t m = static_cast<std::size_t>(n_) >> 1; m >= 1; m >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const std::size_t j2 = j1 + t;
            const std::uint64_t w = inv_root_powers_[m + i];
            for (std::size_t j = j1; j < j2; ++j) {
                const std::uint64_t u = values[j];
                const std::uint64_t v = values[j + t];
                values[j] = addMod(u, v, p_);
                values[j + t] = mulMod(subMod(u, v, p_), w, p_);
            }
        }
        t <<= 1;
    }
    for (int i = 0; i < n_; ++i) {
        values[i] = mulMod(values[i], inv_n_, p_);
    }
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
