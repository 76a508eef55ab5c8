#include "fhe/sealite.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "fhe/bigint.h"
#include "fhe/modarith.h"
#include "support/error.h"

namespace chehab::fhe {

namespace {

/// Bytes the plaintext NTT-form cache of one SealLite may hold.
constexpr std::size_t kPlainCacheBytes = std::size_t{4} << 20;

SealLiteParams
validated(SealLiteParams params)
{
    const std::string problem = params.validate();
    if (!problem.empty()) {
        throw std::invalid_argument("SealLiteParams: " + problem);
    }
    return params;
}

} // namespace

std::string
SealLiteParams::validate() const
{
    const auto text = [](auto value) { return std::to_string(value); };
    if (n < kMinDegree || n > kMaxDegree || (n & (n - 1)) != 0) {
        return "n must be a power of two in [" + text(kMinDegree) + ", " +
               text(kMaxDegree) + "] (got " + text(n) + ")";
    }
    if (prime_count < 1 || prime_count > kMaxPrimeCount) {
        return "prime_count must be in [1, " + text(kMaxPrimeCount) +
               "] (got " + text(prime_count) + ")";
    }
    int log_two_n = 1;
    while ((1 << log_two_n) < 2 * n) ++log_two_n;
    const int min_bits = log_two_n + 12;
    if (prime_bits < min_bits || prime_bits > kMaxPrimeBits) {
        return "prime_bits must be in [" + text(min_bits) + ", " +
               text(kMaxPrimeBits) + "] at n = " + text(n) + " (got " +
               text(prime_bits) + ")";
    }
    if (decomp_bits < 1 || decomp_bits > prime_bits) {
        return "decomp_bits must be in [1, prime_bits] (got " +
               text(decomp_bits) + ")";
    }
    if (error_stddev_x10 < 0 || error_stddev_x10 > kMaxErrorStddevX10) {
        return "error_stddev_x10 must be in [0, " +
               text(kMaxErrorStddevX10) + "] (got " +
               text(error_stddev_x10) + ")";
    }
    const std::uint64_t t = plain_modulus;
    if (!isPrime(t) || (t - 1) % (2 * static_cast<std::uint64_t>(n)) != 0) {
        return "plain_modulus must be a prime ≡ 1 (mod 2n) (got " +
               text(t) + " at n = " + text(n) + ")";
    }
    // sampleError clips at 6σ and rounds, so |e| <= ceil(0.6 * x10).
    const auto max_error =
        static_cast<std::uint64_t>((6 * error_stddev_x10 + 9) / 10);
    if (static_cast<unsigned __int128>(t) * (max_error + 1) >=
        (1ULL << (prime_bits - 1))) {
        return "plain_modulus times the largest sampled error must stay "
               "below 2^(prime_bits-1) (got t = " +
               text(t) + " with prime_bits " + text(prime_bits) + ")";
    }
    return {};
}

SealLite::SealLite(SealLiteParams params)
    : params_(validated(params)), rng_(params.seed)
{
    const auto n = static_cast<std::uint64_t>(params_.n);
    const std::uint64_t t = params_.plain_modulus;

    primes_ = findNttPrimes(params_.prime_bits, params_.prime_count, 2 * n);
    ntt_.reserve(primes_.size());
    for (std::uint64_t p : primes_) {
        ntt_.push_back(acquireNttTables(params_.n, p));
    }

    // Per-level CRT recomposition tables: level k uses the first k chain
    // primes (modulus switching walks down the chain one prime at a time).
    // BigInt builds them once; decryption reads only the fixed limbs.
    const auto to_limbs = [](const BigInt& value) {
        Limbs limbs{};
        CHEHAB_ASSERT(value.limbs().size() <= limbs.size(),
                      "CRT constant wider than the fixed limbs");
        std::copy(value.limbs().begin(), value.limbs().end(),
                  limbs.begin());
        return limbs;
    };
    level_tables_.resize(primes_.size());
    for (std::size_t lvl = 1; lvl <= primes_.size(); ++lvl) {
        LevelTables& tab = level_tables_[lvl - 1];
        BigInt q(1);
        for (std::size_t i = 0; i < lvl; ++i) q = q.multiplySmall(primes_[i]);
        std::uint64_t rem = 0;
        tab.q = to_limbs(q);
        tab.half_q = to_limbs(q.divmodSmall(2, rem));
        q.divmodSmall(t, tab.q_mod_t);
        tab.q_bits = q.bitLength();
        // Every term y_i·(q/q_i) is below q and there are at most 16 of
        // them, so 4 bits of headroom hold the sum.
        tab.limbs = (tab.q_bits + 4 + 63) / 64;
        for (std::size_t i = 0; i < lvl; ++i) {
            BigInt q_hat(1);
            for (std::size_t j = 0; j < lvl; ++j) {
                if (j != i) q_hat = q_hat.multiplySmall(primes_[j]);
            }
            std::uint64_t q_hat_mod_qi = 0;
            q_hat.divmodSmall(primes_[i], q_hat_mod_qi);
            const std::uint64_t inv = invMod(q_hat_mod_qi, primes_[i]);
            tab.q_hat_inv.push_back(static_cast<std::uint32_t>(inv));
            tab.q_hat_inv_shoup.push_back(shoupPrecompute32(inv, primes_[i]));
            std::uint64_t q_hat_mod_t = 0;
            q_hat.divmodSmall(t, q_hat_mod_t);
            tab.q_hat_mod_t.push_back(static_cast<std::uint32_t>(q_hat_mod_t));
            tab.q_hat_mod_t_shoup.push_back(
                shoupPrecompute32(q_hat_mod_t, t));
            tab.q_hat.push_back(to_limbs(q_hat));
            tab.alpha_q_mod_t.push_back(mulMod(i, tab.q_mod_t, t));
        }
    }

    // Modulus-switch constants for dropping prime index l (level l+1
    // -> l): q_l^{-1} mod t for the δ construction, and per surviving
    // prime q_l mod q_i (δ's second part) and the rescale factor
    // q_l^{-1} folded with the centered scalar φ ≡ q_l (mod t) that
    // restores the plaintext scaling (see header).
    inv_prime_mod_t_.assign(primes_.size(), 0);
    inv_prime_mod_t_shoup_.assign(primes_.size(), 0);
    switch_prime_mod_.resize(primes_.size());
    switch_prime_mod_shoup_.resize(primes_.size());
    switch_factor_.resize(primes_.size());
    switch_factor_shoup_.resize(primes_.size());
    for (std::size_t l = 1; l < primes_.size(); ++l) {
        const std::uint64_t ql = primes_[l];
        const std::uint64_t ql_mod_t = ql % t;
        CHEHAB_ASSERT(ql_mod_t != 0, "chain prime divisible by t");
        const std::uint64_t inv_ql_t = invMod(ql_mod_t, t);
        inv_prime_mod_t_[l] = static_cast<std::uint32_t>(inv_ql_t);
        inv_prime_mod_t_shoup_[l] = shoupPrecompute32(inv_ql_t, t);
        const bool phi_negative = ql_mod_t > t / 2;
        const std::uint64_t phi_abs = phi_negative ? t - ql_mod_t : ql_mod_t;
        for (std::size_t i = 0; i < l; ++i) {
            const std::uint64_t qi = primes_[i];
            const std::uint64_t ql_mod_qi = ql % qi;
            switch_prime_mod_[l].push_back(
                static_cast<std::uint32_t>(ql_mod_qi));
            switch_prime_mod_shoup_[l].push_back(
                shoupPrecompute32(ql_mod_qi, qi));
            std::uint64_t phi_mod = phi_abs % qi;
            if (phi_negative && phi_mod != 0) phi_mod = qi - phi_mod;
            const std::uint64_t factor =
                mulMod(invMod(ql_mod_qi, qi), phi_mod, qi);
            switch_factor_[l].push_back(static_cast<std::uint32_t>(factor));
            switch_factor_shoup_[l].push_back(shoupPrecompute32(factor, qi));
        }
    }

    // Batching: slot j of row 0 is the evaluation at ζ^(3^j mod 2n). The
    // forward NTT of X holds at index i the point index i evaluates at,
    // which locates every slot's index.
    plain_ntt_ = acquireNttTables(params_.n, t);
    std::vector<std::uint32_t> points(static_cast<std::size_t>(n), 0);
    points[1] = 1;
    plain_ntt_->forward(points.data());
    std::unordered_map<std::uint64_t, int> index_of;
    for (std::size_t i = 0; i < points.size(); ++i) {
        index_of.emplace(points[i], static_cast<int>(i));
    }
    // ζ has order 2n, so cubing the point steps the exponent 3^j -> 3^(j+1).
    std::uint64_t point = findPrimitiveRoot(2 * n, t);
    slot_index_.resize(static_cast<std::size_t>(params_.n) / 2);
    for (int& index : slot_index_) {
        index = index_of.at(point);
        point = mulMod(mulMod(point, point, t), point, t);
    }

    plain_cache_capacity_ = std::max<std::size_t>(
        1, kPlainCacheBytes / (primes_.size() * n * 8 + n * 8));

    // Key material.
    secret_ = sampleTernary();
    secret_rns_ = liftSmall(secret_);
    secret_ntt_ = toNttForm(secret_rns_);
    relin_key_ = makeKeySwitchKey(mulPolyNtt(secret_rns_, secret_ntt_));
}

int
SealLite::coeffModulusBitsAt(int level) const
{
    CHEHAB_ASSERT(level >= 1 && level <= levels(), "bad chain level");
    return level_tables_[static_cast<std::size_t>(level) - 1].q_bits;
}

// ---------------------------------------------------------------------
// Sampling and RNS helpers.
// ---------------------------------------------------------------------

RnsPoly
SealLite::zeroPoly(int k) const
{
    // Arena-backed: steady-state evaluation recycles every dead poly,
    // so after a priming pass this is a freelist pop + memset, never a
    // heap allocation (the zero-allocs-per-op contract).
    RnsPoly poly;
    poly.k = k == 0 ? static_cast<int>(primes_.size()) : k;
    poly.n = params_.n;
    poly.data =
        arena_.acquireZeroed(static_cast<std::size_t>(poly.k) * poly.n);
    return poly;
}

RnsPoly
SealLite::clonePoly(const RnsPoly& a) const
{
    RnsPoly out;
    out.k = a.k;
    out.n = a.n;
    out.data = arena_.acquire(a.data.size());
    std::copy(a.data.begin(), a.data.end(), out.data.begin());
    return out;
}

RnsPoly
SealLite::uniformPoly()
{
    RnsPoly poly = zeroPoly();
    for (int i = 0; i < poly.k; ++i) {
        std::uint32_t* c = poly.component(i);
        for (int j = 0; j < poly.n; ++j) {
            c[j] = static_cast<std::uint32_t>(
                rng_.uniformInt(primes_[static_cast<std::size_t>(i)]));
        }
    }
    return poly;
}

RnsPoly
SealLite::liftSmall(const std::vector<int>& coeffs) const
{
    RnsPoly poly = zeroPoly();
    for (int i = 0; i < poly.k; ++i) {
        const auto p = static_cast<std::uint32_t>(
            primes_[static_cast<std::size_t>(i)]);
        std::uint32_t* c = poly.component(i);
        for (int j = 0; j < poly.n; ++j) {
            const int v = coeffs[static_cast<std::size_t>(j)];
            c[j] = v >= 0 ? static_cast<std::uint32_t>(v)
                          : p - static_cast<std::uint32_t>(-v);
        }
    }
    return poly;
}

std::vector<int>
SealLite::sampleTernary()
{
    std::vector<int> coeffs(static_cast<std::size_t>(params_.n));
    for (auto& c : coeffs) {
        c = static_cast<int>(rng_.uniformInt(3)) - 1;
    }
    return coeffs;
}

std::vector<int>
SealLite::sampleError()
{
    // Rounded gaussian with sigma = error_stddev_x10/10, clipped at 6σ.
    const double sigma = params_.error_stddev_x10 / 10.0;
    std::vector<int> coeffs(static_cast<std::size_t>(params_.n));
    for (auto& c : coeffs) {
        double draw = rng_.normal() * sigma;
        const double bound = 6.0 * sigma;
        if (draw > bound) draw = bound;
        if (draw < -bound) draw = -bound;
        c = static_cast<int>(std::lround(draw));
    }
    return coeffs;
}

// Residues are below p < 2^31, so x + y and x - y + p stay inside a
// word, and one conditional subtract fully reduces each. The word
// loops read n from a local: a store through a 32-bit word pointer
// may alias the poly's int fields, which would stop vectorization.

void
SealLite::addInPlace(RnsPoly& a, const RnsPoly& b) const
{
    CHEHAB_ASSERT(a.k == b.k, "RNS add across mismatched levels");
    const int n = a.n;
    for (int i = 0; i < a.k; ++i) {
        const auto p = static_cast<std::uint32_t>(
            primes_[static_cast<std::size_t>(i)]);
        std::uint32_t* x = a.component(i);
        const std::uint32_t* y = b.component(i);
        for (int j = 0; j < n; ++j) x[j] = csub32(x[j] + y[j], p);
    }
}

void
SealLite::subInPlace(RnsPoly& a, const RnsPoly& b) const
{
    CHEHAB_ASSERT(a.k == b.k, "RNS sub across mismatched levels");
    const int n = a.n;
    for (int i = 0; i < a.k; ++i) {
        const auto p = static_cast<std::uint32_t>(
            primes_[static_cast<std::size_t>(i)]);
        std::uint32_t* x = a.component(i);
        const std::uint32_t* y = b.component(i);
        for (int j = 0; j < n; ++j) x[j] = csub32(x[j] - y[j] + p, p);
    }
}

void
SealLite::negateInPlace(RnsPoly& a) const
{
    const int n = a.n;
    for (int i = 0; i < a.k; ++i) {
        const auto p = static_cast<std::uint32_t>(
            primes_[static_cast<std::size_t>(i)]);
        std::uint32_t* x = a.component(i);
        for (int j = 0; j < n; ++j) x[j] = csub32(p - x[j], p);
    }
}

void
SealLite::assemble(RnsPoly& poly, bool subtract,
                   const std::vector<int>& error,
                   const Plaintext* plain) const
{
    const auto t = static_cast<std::uint32_t>(params_.plain_modulus);
    const int n = poly.n;
    const int* e = error.empty() ? nullptr : error.data();
    const std::uint64_t* m = plain != nullptr ? plain->coeffs.data() : nullptr;
    // A word below the level's smallest prime is its own residue at
    // every prime (an encoded plaintext's words are below t).
    bool reduce = false;
    if (m != nullptr) {
        const std::uint64_t p_min =
            *std::min_element(primes_.begin(), primes_.begin() + poly.k);
        reduce = *std::max_element(plain->coeffs.begin(),
                                   plain->coeffs.end()) >= p_min;
    }
    for (int i = 0; i < poly.k; ++i) {
        const auto pi = static_cast<std::size_t>(i);
        const auto p = static_cast<std::uint32_t>(primes_[pi]);
        const Barrett& reducer = ntt_[pi]->reducer();
        std::uint32_t* x = poly.component(i);
        for (int j = 0; j < n; ++j) {
            std::uint32_t v = 0;
            if (e != nullptr) {
                // t·e as a two's-complement word; validate() keeps
                // |t·e| below 2^(prime_bits-1) < p, so a negative one
                // lifts by adding p once.
                v = static_cast<std::uint32_t>(e[j]) * t;
                v += p & (0U - (v >> 31));
            }
            if (m != nullptr) {
                v = csub32(v + static_cast<std::uint32_t>(
                                   reduce ? reducer.reduce(m[j]) : m[j]),
                           p);
            }
            x[j] = subtract ? csub32(v - x[j] + p, p) : csub32(v + x[j], p);
        }
    }
}

RnsPoly
SealLite::mulPolyNtt(const RnsPoly& a, const NttForm& b) const
{
    RnsPoly result = clonePoly(a);
    mulPolyNttInPlace(result, b);
    return result;
}

void
SealLite::mulPolyNttInPlace(RnsPoly& a, const NttForm& b) const
{
    CHEHAB_ASSERT(b.n == a.n && b.k >= a.k,
                  "NTT form shorter than the operand level");
    // Transforms run directly on a's components — no scratch at all.
    for (int i = 0; i < a.k; ++i) {
        const NttTables& tables = *ntt_[static_cast<std::size_t>(i)];
        std::uint32_t* x = a.component(i);
        tables.forward(x);
        tables.pointwiseShoup(x, b.component(i), b.shoupComponent(i));
        tables.inverse(x);
    }
}

NttForm
SealLite::toNttForm(const RnsPoly& a) const
{
    NttForm form;
    form.k = a.k;
    form.n = a.n;
    form.values = a.data;
    form.shoup.resize(form.values.size());
    for (int i = 0; i < a.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        std::uint32_t* v = form.values.data() +
                           static_cast<std::size_t>(i) * form.n;
        ntt_[static_cast<std::size_t>(i)]->forward(v);
        std::uint32_t* s = form.shoup.data() +
                           static_cast<std::size_t>(i) * form.n;
        for (int j = 0; j < form.n; ++j) {
            s[j] = shoupPrecompute32(v[j], p);
        }
    }
    return form;
}

RnsPoly
SealLite::applyAutomorphism(const RnsPoly& a,
                            std::uint64_t galois_element) const
{
    // x^j -> x^(j·g) = ±x^((j·g) mod n): g is odd, so j -> j·g mod 2n
    // permutes the indices and every output word is written once.
    RnsPoly result;
    result.k = a.k;
    result.n = a.n;
    result.data = arena_.acquire(a.data.size());
    const auto n = static_cast<std::uint32_t>(params_.n);
    const std::uint32_t two_n_mask = 2 * n - 1;
    const auto g = static_cast<std::uint32_t>(galois_element & two_n_mask);
    int log_n = 0;
    while ((1U << log_n) < n) ++log_n;
    std::uint32_t primes[SealLiteParams::kMaxPrimeCount];
    for (int i = 0; i < a.k; ++i) {
        primes[i] = static_cast<std::uint32_t>(
            primes_[static_cast<std::size_t>(i)]);
    }
    for (std::uint32_t j = 0; j < n; ++j) {
        // 2n is a power of two, so the mask takes j·g mod 2n, and its
        // top bit says whether x^n = -1 negates the word.
        const std::uint32_t raw = (j * g) & two_n_mask;
        const std::uint32_t idx = raw & (n - 1);
        const std::uint32_t sign = 0U - (raw >> log_n);
        for (int i = 0; i < a.k; ++i) {
            // The word, or p - word when sign is all ones (~v + 1 = -v);
            // the conditional subtract maps p - 0 back to 0.
            const std::uint32_t v = a.component(i)[j];
            result.component(i)[idx] =
                csub32((v ^ sign) - sign + (primes[i] & sign), primes[i]);
        }
    }
    return result;
}

std::shared_ptr<const NttForm>
SealLite::plainNttForm(const Plaintext& plain) const
{
    // FNV-1a over the coefficients; the full vector is stored alongside
    // the form and compared on hit, so a hash collision degrades to a
    // rebuild rather than a wrong product.
    std::uint64_t hash = 1469598103934665603ULL;
    for (std::uint64_t v : plain.coeffs) {
        hash ^= v;
        hash *= 1099511628211ULL;
    }
    {
        std::lock_guard<std::mutex> lock(plain_cache_mutex_);
        auto it = plain_ntt_cache_.find(hash);
        if (it != plain_ntt_cache_.end() &&
            it->second->coeffs == plain.coeffs) {
            return {it->second, &it->second->form};
        }
    }
    auto entry = std::make_shared<PlainCacheEntry>();
    entry->coeffs = plain.coeffs;
    RnsPoly lifted = zeroPoly();
    assemble(lifted, false, {}, &plain);
    entry->form = toNttForm(lifted);
    recycle(std::move(lifted));
    std::lock_guard<std::mutex> lock(plain_cache_mutex_);
    if (plain_ntt_cache_.size() >= plain_cache_capacity_) {
        plain_ntt_cache_.clear();
    }
    plain_ntt_cache_[hash] = entry;
    return {entry, &entry->form};
}

void
SealLite::modSwitchPolyDown(RnsPoly& poly) const
{
    CHEHAB_ASSERT(poly.k >= 2, "cannot drop the last chain prime");
    const int l = poly.k - 1;
    const auto li = static_cast<std::size_t>(l);
    const auto n = static_cast<std::size_t>(poly.n);
    // δ ≡ c (mod q_l) and δ ≡ 0 (mod t) is δ0 + q_l·u: δ0 the centered
    // residue of c mod q_l and u the centered -δ0·q_l^{-1} mod t. Each
    // surviving component becomes c' = (c - δ)·q_l^{-1}·φ mod q_i, the
    // two scalars folded into one factor.
    std::vector<std::uint32_t> delta0 = arena_.acquire(n);
    std::vector<std::uint32_t> u = arena_.acquire(n);
    plain_ntt_->dropCorrection(poly.component(l),
                               static_cast<std::uint32_t>(primes_[li]),
                               inv_prime_mod_t_[li],
                               inv_prime_mod_t_shoup_[li], delta0.data(),
                               u.data());
    for (int i = 0; i < l; ++i) {
        const auto pi = static_cast<std::size_t>(i);
        ntt_[pi]->dropRescale(poly.component(i), delta0.data(), u.data(),
                              switch_prime_mod_[li][pi],
                              switch_prime_mod_shoup_[li][pi],
                              switch_factor_[li][pi],
                              switch_factor_shoup_[li][pi]);
    }
    arena_.release(std::move(delta0));
    arena_.release(std::move(u));
    poly.k = l;
    poly.data.resize(static_cast<std::size_t>(l) * n);
}

void
SealLite::modSwitchTo(Ciphertext& ct, int level) const
{
    CHEHAB_ASSERT(level >= 1 && level <= ct.c0.k,
                  "mod switch target outside the remaining chain");
    while (ct.c0.k > level) {
        modSwitchPolyDown(ct.c0);
        modSwitchPolyDown(ct.c1);
    }
}

// ---------------------------------------------------------------------
// Batching.
// ---------------------------------------------------------------------

Plaintext
SealLite::encode(const std::vector<std::int64_t>& values) const
{
    CHEHAB_ASSERT(static_cast<int>(values.size()) <= slots(),
                  "too many values for the batching row");
    const std::uint64_t t = params_.plain_modulus;
    // Slot values at their NTT indices (row 1 and the tail stay zero),
    // then c_k = n^{-1} Σ_j v_j ζ^{-e_j k} is one inverse transform.
    std::vector<std::uint32_t> slots =
        arena_.acquireZeroed(static_cast<std::size_t>(params_.n));
    for (std::size_t j = 0; j < values.size(); ++j) {
        const std::int64_t v = values[j] % static_cast<std::int64_t>(t);
        slots[static_cast<std::size_t>(slot_index_[j])] =
            static_cast<std::uint32_t>(
                v >= 0 ? static_cast<std::uint64_t>(v)
                       : t - static_cast<std::uint64_t>(-v));
    }
    plain_ntt_->inverse(slots.data());
    Plaintext plain;
    plain.coeffs.assign(slots.begin(), slots.end());
    arena_.release(std::move(slots));
    return plain;
}

std::vector<std::int64_t>
SealLite::decode(const Plaintext& plain) const
{
    CHEHAB_ASSERT(static_cast<int>(plain.coeffs.size()) == params_.n,
                  "plaintext degree does not match the ring");
    std::vector<std::uint32_t> evaluations =
        arena_.acquire(static_cast<std::size_t>(params_.n));
    const Barrett& reducer = plain_ntt_->reducer();
    for (std::size_t k = 0; k < evaluations.size(); ++k) {
        evaluations[k] =
            static_cast<std::uint32_t>(reducer.reduce(plain.coeffs[k]));
    }
    plain_ntt_->forward(evaluations.data());
    std::vector<std::int64_t> values(slot_index_.size());
    for (std::size_t j = 0; j < slot_index_.size(); ++j) {
        values[j] = static_cast<std::int64_t>(
            evaluations[static_cast<std::size_t>(slot_index_[j])]);
    }
    arena_.release(std::move(evaluations));
    return values;
}

Plaintext
SealLite::encodeLanes(const std::vector<std::vector<std::int64_t>>& lanes,
                      int lane_stride) const
{
    CHEHAB_ASSERT(lane_stride > 0, "lane stride must be positive");
    CHEHAB_ASSERT(static_cast<int>(lanes.size()) * lane_stride <= slots(),
                  "lanes exceed the batching row");
    std::vector<std::int64_t> row(
        static_cast<std::size_t>(lanes.size()) *
            static_cast<std::size_t>(lane_stride),
        0);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        CHEHAB_ASSERT(static_cast<int>(lanes[l].size()) <= lane_stride,
                      "lane wider than its stride");
        std::copy(lanes[l].begin(), lanes[l].end(),
                  row.begin() + static_cast<std::ptrdiff_t>(
                                    l * static_cast<std::size_t>(lane_stride)));
    }
    return encode(row);
}

std::vector<std::vector<std::int64_t>>
SealLite::decodeLanes(const Plaintext& plain, int lane_stride, int width,
                      int num_lanes, int first_lane) const
{
    CHEHAB_ASSERT(lane_stride > 0 && width >= 0 && width <= lane_stride,
                  "bad lane slice");
    CHEHAB_ASSERT(first_lane >= 0 && num_lanes >= 0 &&
                      (first_lane + num_lanes) * lane_stride <= slots(),
                  "lanes exceed the batching row");
    const std::vector<std::int64_t> row = decode(plain);
    std::vector<std::vector<std::int64_t>> out(
        static_cast<std::size_t>(num_lanes));
    for (int l = 0; l < num_lanes; ++l) {
        const auto base = static_cast<std::size_t>(first_lane + l) *
                          static_cast<std::size_t>(lane_stride);
        out[static_cast<std::size_t>(l)].assign(
            row.begin() + static_cast<std::ptrdiff_t>(base),
            row.begin() + static_cast<std::ptrdiff_t>(
                              base + static_cast<std::size_t>(width)));
    }
    return out;
}

// ---------------------------------------------------------------------
// Encryption / decryption.
// ---------------------------------------------------------------------

Ciphertext
SealLite::encrypt(const Plaintext& plain)
{
    Ciphertext ct;
    ct.c1 = uniformPoly();
    // c0 = t·e + m - a·s, assembled over the product a·s.
    ct.c0 = mulPolyNtt(ct.c1, secret_ntt_);
    assemble(ct.c0, true, sampleError(), &plain);
    return ct;
}

namespace {

/// -1, 0, +1 as a <, =, > b over the low \p limbs limbs.
template <std::size_t N>
int
compareLimbs(const std::array<std::uint64_t, N>& a,
             const std::array<std::uint64_t, N>& b, int limbs)
{
    for (int l = limbs - 1; l >= 0; --l) {
        const auto i = static_cast<std::size_t>(l);
        if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return 0;
}

/// out = a - b over the low \p limbs limbs; requires a >= b.
template <std::size_t N>
void
subtractLimbs(const std::array<std::uint64_t, N>& a,
              const std::array<std::uint64_t, N>& b,
              std::array<std::uint64_t, N>& out, int limbs)
{
    std::uint64_t borrow = 0;
    for (int l = 0; l < limbs; ++l) {
        const auto i = static_cast<std::size_t>(l);
        const std::uint64_t diff = a[i] - b[i];
        const std::uint64_t next = (a[i] < b[i]) | (diff < borrow);
        out[i] = diff - borrow;
        borrow = next;
    }
}

template <std::size_t N>
int
bitLengthLimbs(const std::array<std::uint64_t, N>& a, int limbs)
{
    for (int l = limbs - 1; l >= 0; --l) {
        const std::uint64_t top = a[static_cast<std::size_t>(l)];
        if (top != 0) return l * 64 + 64 - __builtin_clzll(top);
    }
    return 0;
}

} // namespace

SealLite::Recomposed
SealLite::recomposeCoeff(const RnsPoly& poly, int index) const
{
    const LevelTables& tab =
        level_tables_[static_cast<std::size_t>(poly.k) - 1];
    const std::uint64_t t = params_.plain_modulus;
    Recomposed out;
    Limbs& value = out.value;
    std::uint32_t y[SealLiteParams::kMaxPrimeCount];
    std::uint64_t mod_t = 0;
    for (int i = 0; i < poly.k; ++i) {
        const auto pi = static_cast<std::size_t>(i);
        y[pi] = mulModShoup32(poly.component(i)[index], tab.q_hat_inv[pi],
                              tab.q_hat_inv_shoup[pi],
                              static_cast<std::uint32_t>(primes_[pi]));
        mod_t = addMod(mod_t,
                       mulModShoup32(y[pi], tab.q_hat_mod_t[pi],
                                     tab.q_hat_mod_t_shoup[pi],
                                     static_cast<std::uint32_t>(t)),
                       t);
    }
    // Limb by limb: a column sums at most 16 products below 2^95 plus
    // the carry in, so it never leaves 128 bits.
    unsigned __int128 carry = 0;
    for (int l = 0; l < tab.limbs; ++l) {
        const auto li = static_cast<std::size_t>(l);
        for (int i = 0; i < poly.k; ++i) {
            carry += static_cast<unsigned __int128>(
                         tab.q_hat[static_cast<std::size_t>(i)][li]) *
                     y[i];
        }
        value[li] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
    }
    // The sum is below k·q: at most k-1 subtractions land it in [0, q).
    std::size_t alpha = 0;
    while (compareLimbs(value, tab.q, tab.limbs) >= 0) {
        subtractLimbs(value, tab.q, value, tab.limbs);
        ++alpha;
    }
    out.mod_t = subMod(mod_t, tab.alpha_q_mod_t[alpha], t);
    out.upper = compareLimbs(value, tab.half_q, tab.limbs) > 0;
    return out;
}

RnsPoly
SealLite::decryptionPhase(const Ciphertext& ct) const
{
    RnsPoly v = mulPolyNtt(ct.c1, secret_ntt_);
    addInPlace(v, ct.c0);
    return v;
}

SealLite::Readout
SealLite::readout(const Ciphertext& ct) const
{
    // m = (centered phase) mod t, and the budget from the largest
    // centered magnitude. q here is the ciphertext's *current* chain
    // product: decryption works at every level.
    RnsPoly v = decryptionPhase(ct);
    const LevelTables& tab =
        level_tables_[static_cast<std::size_t>(v.k) - 1];
    const std::uint64_t t = params_.plain_modulus;

    Readout out;
    out.plain.coeffs.resize(static_cast<std::size_t>(params_.n));
    int max_bits = 0;
    for (int j = 0; j < params_.n; ++j) {
        Recomposed c = recomposeCoeff(v, j);
        // Upper half: the true integer is value - q (negative lift),
        // whose magnitude is q - value exactly (q is odd).
        out.plain.coeffs[static_cast<std::size_t>(j)] =
            c.upper ? subMod(c.mod_t, tab.q_mod_t, t) : c.mod_t;
        if (c.upper) subtractLimbs(tab.q, c.value, c.value, tab.limbs);
        max_bits = std::max(max_bits, bitLengthLimbs(c.value, tab.limbs));
    }
    recycle(std::move(v));
    out.budget = (tab.q_bits - 1) - max_bits;
    return out;
}

Plaintext
SealLite::decryptPlain(const Ciphertext& ct) const
{
    return readout(ct).plain;
}

std::vector<std::int64_t>
SealLite::decrypt(const Ciphertext& ct) const
{
    return decode(decryptPlain(ct));
}

// ---------------------------------------------------------------------
// Evaluator.
// ---------------------------------------------------------------------

Ciphertext
SealLite::clone(const Ciphertext& a) const
{
    Ciphertext out;
    out.c0 = clonePoly(a.c0);
    out.c1 = clonePoly(a.c1);
    return out;
}

void
SealLite::recycle(RnsPoly&& poly) const
{
    arena_.release(std::move(poly.data));
    poly.k = 0;
}

void
SealLite::recycle(Ciphertext&& ct) const
{
    recycle(std::move(ct.c0));
    recycle(std::move(ct.c1));
}

void
SealLite::addInPlace(Ciphertext& a, const Ciphertext& b) const
{
    addInPlace(a.c0, b.c0);
    addInPlace(a.c1, b.c1);
}

void
SealLite::subInPlace(Ciphertext& a, const Ciphertext& b) const
{
    subInPlace(a.c0, b.c0);
    subInPlace(a.c1, b.c1);
}

void
SealLite::negateInPlace(Ciphertext& a) const
{
    negateInPlace(a.c0);
    negateInPlace(a.c1);
}

void
SealLite::addPlainInPlace(Ciphertext& a, const Plaintext& plain) const
{
    assemble(a.c0, false, {}, &plain);
}

void
SealLite::mulPlainInPlace(Ciphertext& a, const Plaintext& plain) const
{
    const std::shared_ptr<const NttForm> form = plainNttForm(plain);
    mulPolyNttInPlace(a.c0, *form);
    mulPolyNttInPlace(a.c1, *form);
}

Ciphertext
SealLite::add(const Ciphertext& a, const Ciphertext& b) const
{
    Ciphertext out = clone(a);
    addInPlace(out, b);
    return out;
}

Ciphertext
SealLite::sub(const Ciphertext& a, const Ciphertext& b) const
{
    Ciphertext out = clone(a);
    subInPlace(out, b);
    return out;
}

Ciphertext
SealLite::negate(const Ciphertext& a) const
{
    Ciphertext out = clone(a);
    negateInPlace(out);
    return out;
}

Ciphertext
SealLite::addPlain(const Ciphertext& a, const Plaintext& plain) const
{
    Ciphertext out = clone(a);
    addPlainInPlace(out, plain);
    return out;
}

Ciphertext
SealLite::mulPlain(const Ciphertext& a, const Plaintext& plain) const
{
    // Packed executions re-multiply the same masks on every run of a
    // cached program; the cached NTT form turns each mulPlain into one
    // forward + pointwise Shoup + one inverse per component.
    const std::shared_ptr<const NttForm> form = plainNttForm(plain);
    Ciphertext out;
    out.c0 = mulPolyNtt(a.c0, *form);
    out.c1 = mulPolyNtt(a.c1, *form);
    return out;
}

int
SealLite::digitsPerPrime() const
{
    return (params_.prime_bits + params_.decomp_bits - 1) /
           params_.decomp_bits;
}

SealLite::KeySwitchKey
SealLite::makeKeySwitchKey(const RnsPoly& target)
{
    KeySwitchKey key;
    const int k = static_cast<int>(primes_.size());
    const int digits = digitsPerPrime();
    // Transform every component in place; the poly's words become the
    // key entry as they are.
    const auto key_words = [this](RnsPoly&& poly) {
        for (int j = 0; j < poly.k; ++j) {
            ntt_[static_cast<std::size_t>(j)]->forward(poly.component(j));
        }
        return std::move(poly.data);
    };
    for (int i = 0; i < k; ++i) {
        const std::uint64_t p_i = primes_[static_cast<std::size_t>(i)];
        const Barrett& reducer = ntt_[static_cast<std::size_t>(i)]->reducer();
        for (int d = 0; d < digits; ++d) {
            // b = t·e - a·s, assembled over the product a·s as in
            // encrypt.
            RnsPoly a_id = uniformPoly();
            RnsPoly b_id = mulPolyNtt(a_id, secret_ntt_);
            assemble(b_id, true, sampleError(), nullptr);
            // + T_i * B^d * target: the CRT basis vector T_i is 1 mod q_i
            // and 0 mod q_j, so in RNS this touches component i alone.
            const std::uint64_t base_power = powMod(
                1ULL << params_.decomp_bits,
                static_cast<std::uint64_t>(d), p_i);
            std::uint32_t* dst = b_id.component(i);
            const std::uint32_t* src = target.component(i);
            for (int j = 0; j < params_.n; ++j) {
                dst[j] = static_cast<std::uint32_t>(addMod(
                    dst[j], reducer.mulMod(src[j], base_power), p_i));
            }
            key.a.push_back(key_words(std::move(a_id)));
            key.b.push_back(key_words(std::move(b_id)));
        }
    }
    return key;
}

void
SealLite::keySwitch(const RnsPoly& poly, const KeySwitchKey& key,
                    RnsPoly& delta_c0, RnsPoly& delta_c1) const
{
    // Operates at poly's level: residues i >= poly.k no longer exist,
    // and for the surviving primes the first poly.k components of the
    // full-level key entries are exactly the level-poly.k key (the CRT
    // basis T_i reduces correctly mod every surviving prime).
    const int k = poly.k;
    const int digits = digitsPerPrime();
    const std::uint32_t mask = (1U << params_.decomp_bits) - 1;
    const int n = params_.n;
    std::vector<std::uint32_t> digit =
        arena_.acquire(static_cast<std::size_t>(n));
    // One prime's two lazy sums, 2n words each. Summing raw products
    // and reducing once per prime is exact: the sums are reduced fully
    // before the inverse NTT, which is linear mod p, so the words equal
    // those of a product reduced term by term.
    std::vector<std::uint32_t> sums =
        arena_.acquire(4 * static_cast<std::size_t>(n));
    std::uint32_t* sums0 = sums.data();
    std::uint32_t* sums1 = sums0 + 2 * static_cast<std::size_t>(n);
    for (int j = 0; j < k; ++j) {
        const NttTables& tables = *ntt_[static_cast<std::size_t>(j)];
        const std::size_t offset = static_cast<std::size_t>(j) * n;
        int terms = 0;
        for (int i = 0; i < k; ++i) {
            const std::uint32_t* residues = poly.component(i);
            for (int d = 0; d < digits; ++d) {
                // Base-2^w digit of the i-th residue polynomial, straight
                // into the transform buffer. With w = prime_bits a digit
                // can exceed a smaller prime p_j, but it stays below
                // 2^w <= 2^prime_bits < 2p_j, inside the transform's
                // [0, 2p) input domain, so the RNS lift is the digit
                // itself. An all-zero digit adds nothing.
                const int shift = d * params_.decomp_bits;
                std::uint32_t any = 0;
                for (int x = 0; x < n; ++x) {
                    const std::uint32_t v = (residues[x] >> shift) & mask;
                    digit[static_cast<std::size_t>(x)] = v;
                    any |= v;
                }
                if (any == 0) continue;
                tables.forward(digit.data());
                const std::size_t idx =
                    static_cast<std::size_t>(i) * digits + d;
                terms = tables.accumulateProducts(
                    sums0, sums1, terms, digit.data(),
                    key.b[idx].data() + offset, key.a[idx].data() + offset);
            }
        }
        // Every digit was zero: nothing to add at any prime.
        if (terms == 0) break;
        tables.reduceSums(sums0, sums1);
        tables.inverse(sums0);
        tables.inverse(sums1);
        const auto p = static_cast<std::uint32_t>(tables.modulus());
        std::uint32_t* dst0 = delta_c0.component(j);
        std::uint32_t* dst1 = delta_c1.component(j);
        for (int x = 0; x < n; ++x) {
            dst0[x] = csub32(dst0[x] + sums0[x], p);
            dst1[x] = csub32(dst1[x] + sums1[x], p);
        }
    }
    arena_.release(std::move(digit));
    arena_.release(std::move(sums));
}

Ciphertext
SealLite::multiply(const Ciphertext& a, const Ciphertext& b) const
{
    CHEHAB_ASSERT(a.c0.k == b.c0.k, "RNS multiply across mismatched levels");
    // Tensor product (degree 2), then relinearize with the RNS key. Each
    // operand component is forward-transformed once per prime in place
    // of a copy (A0 into out.c0, B1 into out.c1, A1 into e2, B0 into
    // scratch); e0 = A0·B0, e1 = A0·B1 + A1·B0 and e2 = A1·B1 are formed
    // pointwise over them and inverse-transformed once each. Summing e1
    // in the NTT domain is exact: the inverse NTT is linear mod p and
    // fully reduces.
    Ciphertext out;
    out.c0 = clonePoly(a.c0);
    out.c1 = clonePoly(b.c1);
    RnsPoly e2 = clonePoly(a.c1);
    std::vector<std::uint32_t> fb0 =
        arena_.acquire(static_cast<std::size_t>(params_.n));
    for (int i = 0; i < e2.k; ++i) {
        const NttTables& tables = *ntt_[static_cast<std::size_t>(i)];
        std::uint32_t* x0 = out.c0.component(i);
        std::uint32_t* x1 = out.c1.component(i);
        std::uint32_t* x2 = e2.component(i);
        const std::uint32_t* y = b.c0.component(i);
        std::copy(y, y + params_.n, fb0.begin());
        tables.forward(x0);
        tables.forward(x1);
        tables.forward(x2);
        tables.forward(fb0.data());
        tables.tensor(x0, x2, fb0.data(), x1);
        tables.inverse(x0);
        tables.inverse(x1);
        tables.inverse(x2);
    }
    arena_.release(std::move(fb0));
    keySwitch(e2, relin_key_, out.c0, out.c1);
    recycle(std::move(e2));
    return out;
}

std::uint64_t
SealLite::galoisElement(int step) const
{
    const int half = params_.n / 2;
    const int normalized = ((step % half) + half) % half;
    return powMod(3, static_cast<std::uint64_t>(normalized),
                  static_cast<std::uint64_t>(2 * params_.n));
}

void
SealLite::makeGaloisKeys(const std::vector<int>& steps)
{
    for (int step : steps) {
        const int half = params_.n / 2;
        const int normalized = ((step % half) + half) % half;
        if (normalized == 0 || galois_keys_.count(normalized)) continue;
        const std::uint64_t g = galoisElement(normalized);
        galois_elements_[normalized] = g;
        // Key randomness is a pure function of (params seed, step): park
        // the main stream, generate from a step-derived seed, restore.
        // This keeps a key for step s bit-identical across schemes and
        // generation orders (see the header contract).
        const Rng saved = rng_;
        rng_.reseed(params_.seed ^
                    (0x9e3779b97f4a7c15ULL *
                     static_cast<std::uint64_t>(normalized + 1)));
        galois_keys_.emplace(normalized,
                             makeKeySwitchKey(applyAutomorphism(
                                 secret_rns_, g)));
        rng_ = saved;
    }
}

bool
SealLite::hasGaloisKey(int step) const
{
    const int half = params_.n / 2;
    const int normalized = ((step % half) + half) % half;
    return normalized == 0 || galois_keys_.count(normalized) > 0;
}

Ciphertext
SealLite::rotate(const Ciphertext& a, int step) const
{
    const int half = params_.n / 2;
    const int normalized = ((step % half) + half) % half;
    if (normalized == 0) return clone(a);
    auto key_it = galois_keys_.find(normalized);
    CHEHAB_ASSERT(key_it != galois_keys_.end(),
                  "missing Galois key for rotation step");
    const std::uint64_t g = galois_elements_.at(normalized);

    Ciphertext out;
    out.c0 = applyAutomorphism(a.c0, g);
    out.c1 = zeroPoly(a.c0.k);
    RnsPoly rotated_c1 = applyAutomorphism(a.c1, g);
    keySwitch(rotated_c1, key_it->second, out.c0, out.c1);
    recycle(std::move(rotated_c1));
    return out;
}

// ---------------------------------------------------------------------
// Noise measurement.
// ---------------------------------------------------------------------

int
SealLite::noiseBudgetBits(const Ciphertext& ct) const
{
    return readout(ct).budget;
}

int
SealLite::freshNoiseBudget()
{
    if (fresh_budget_ < 0) {
        Plaintext zero;
        zero.coeffs.assign(static_cast<std::size_t>(params_.n), 0);
        fresh_budget_ = noiseBudgetBits(encrypt(zero));
    }
    return fresh_budget_;
}

} // namespace chehab::fhe
