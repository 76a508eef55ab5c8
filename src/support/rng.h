/// \file
/// Deterministic pseudo-random number generation utilities.
///
/// All stochastic components (dataset synthesis, PPO sampling, SealLite key
/// generation) take an explicit Rng so experiments are reproducible from a
/// single seed, mirroring the seeded Stable-Baselines3 setup in the paper.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace chehab {

/// xoshiro256** generator seeded via splitmix64.
///
/// Chosen over std::mt19937_64 for speed and a trivially copyable state,
/// which lets environments snapshot/restore RNG state cheaply.
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    /// Re-initialize the state from a 64-bit seed (splitmix64 expansion).
    /// A pending Box-Muller spare is dropped, so every draw after this
    /// call, normal() included, depends on \p seed alone.
    void
    reseed(std::uint64_t seed)
    {
        for (auto& word : state_) {
            seed += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
        has_spare_ = false;
    }

    /// Next raw 64-bit value.
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform integer in [0, bound). Requires bound > 0.
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free-ish reduction; the bias is
        // negligible for our bounds (all << 2^32).
        const __uint128_t product =
            static_cast<__uint128_t>(next()) * static_cast<__uint128_t>(bound);
        return static_cast<std::uint64_t>(product >> 64);
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t
    uniformRange(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                        uniformInt(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /// Uniform double in [0, 1).
    double
    uniformReal()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Standard normal via Box-Muller.
    double
    normal()
    {
        if (has_spare_) {
            has_spare_ = false;
            return spare_;
        }
        double u = 0.0;
        double v = 0.0;
        double s = 0.0;
        do {
            u = 2.0 * uniformReal() - 1.0;
            v = 2.0 * uniformReal() - 1.0;
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double factor = std::sqrt(-2.0 * std::log(s) / s);
        spare_ = v * factor;
        has_spare_ = true;
        return u * factor;
    }

    /// Bernoulli(p).
    bool
    chance(double p)
    {
        return uniformReal() < p;
    }

    /// Pick a uniformly random element index for a container of size n.
    std::size_t
    pickIndex(std::size_t n)
    {
        return static_cast<std::size_t>(uniformInt(n));
    }

    /// Sample an index from an (unnormalized, non-negative) weight vector.
    std::size_t
    pickWeighted(const std::vector<double>& weights)
    {
        double total = 0.0;
        for (double w : weights) total += w;
        double r = uniformReal() * total;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            r -= weights[i];
            if (r <= 0.0) return i;
        }
        return weights.empty() ? 0 : weights.size() - 1;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
    bool has_spare_ = false;
    double spare_ = 0.0;
};

} // namespace chehab
