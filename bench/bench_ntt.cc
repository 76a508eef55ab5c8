/// \file
/// NTT hot-path microbench over a 30-bit NTT prime (the width the
/// SealLite coefficient chains use) at n ∈ {2^12, 2^13, 2^14}. Every row
/// times NttTables' std::uint32_t* entries, the ones SealLite calls,
/// against a reference, and asserts their output words equal first:
///  - polymul: a full negacyclic product (two forwards, a Barrett
///    pointwise multiply, one inverse) against the same product with a
///    128-by-64 division in every butterfly and pointwise product
///    (mulMod), kept in this file as the reference. Floor: 2x, so
///    whichever transform runs — the 8-lane kernel, or the scalar path
///    in the CHEHAB_AVX2=OFF build and on CPUs without AVX2 — cannot rot
///    back to divisions.
///  - fwd_simd / inv_simd, on machines with AVX2: one transform with
///    SIMD off (the scalar 32-bit path) against SIMD on (the 8-lane
///    kernel), same tables instance. Floor: 2.5x at n >= 4096 in both
///    directions.
/// Each row's two sides run in alternating windows with the minimum
/// kept, so transient machine noise biases both sides equally instead of
/// landing on whichever ran second.
/// A SealLite multiply loop then counts heap allocations per op on a
/// warm arena. Floor: zero.
///
/// Output: one table row per (n, op) with µs/op for the reference and
/// the timed side and the speedup, plus results/ntt.csv with the same
/// columns. The exit status is 1 when a floor fails.
///
/// Environment: CHEHAB_BENCH_FAST=1 runs n = 4096 only, with shorter
/// timing windows (the CI per-push smoke).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "fhe/modarith.h"
#include "fhe/ntt.h"
#include "fhe/sealite.h"
#include "support/csv.h"
#include "support/stopwatch.h"

namespace {

using namespace chehab;

/// Deterministic pseudo-random coefficients in [0, p) (splitmix64).
std::vector<std::uint32_t>
randomPoly(int n, std::uint64_t p, std::uint64_t seed)
{
    std::vector<std::uint32_t> poly(static_cast<std::size_t>(n));
    std::uint64_t state = seed;
    for (auto& c : poly) {
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        c = static_cast<std::uint32_t>((z ^ (z >> 31)) % p);
    }
    return poly;
}

/// The reference transform: NttTables' stages and bit-reversed twiddle
/// order, with one mulMod division per butterfly.
class DivisionNtt
{
  public:
    DivisionNtt(int n, std::uint64_t p)
        : n_(static_cast<std::size_t>(n)), p_(p),
          inv_n_(fhe::invMod(static_cast<std::uint64_t>(n), p))
    {
        int log_n = 0;
        while ((1 << log_n) < n) ++log_n;
        const std::uint64_t psi =
            fhe::findPrimitiveRoot(2 * static_cast<std::uint64_t>(n), p);
        const std::uint64_t psi_inv = fhe::invMod(psi, p);
        for (std::size_t i = 0; i < n_; ++i) {
            std::uint64_t rev = 0;
            for (int b = 0; b < log_n; ++b) {
                rev |= ((i >> b) & 1) << (log_n - 1 - b);
            }
            roots_.push_back(fhe::powMod(psi, rev, p));
            inv_roots_.push_back(fhe::powMod(psi_inv, rev, p));
        }
    }

    void
    forward(std::uint64_t* values) const
    {
        std::size_t t = n_ >> 1;
        for (std::size_t m = 1; m < n_; m <<= 1, t >>= 1) {
            for (std::size_t i = 0; i < m; ++i) {
                std::uint64_t* group = values + 2 * i * t;
                for (std::size_t j = 0; j < t; ++j) {
                    const std::uint64_t u = group[j];
                    const std::uint64_t v =
                        fhe::mulMod(group[j + t], roots_[m + i], p_);
                    group[j] = fhe::addMod(u, v, p_);
                    group[j + t] = fhe::subMod(u, v, p_);
                }
            }
        }
    }

    void
    inverse(std::uint64_t* values) const
    {
        std::size_t t = 1;
        for (std::size_t m = n_ >> 1; m >= 1; m >>= 1, t <<= 1) {
            for (std::size_t i = 0; i < m; ++i) {
                std::uint64_t* group = values + 2 * i * t;
                for (std::size_t j = 0; j < t; ++j) {
                    const std::uint64_t u = group[j];
                    const std::uint64_t v = group[j + t];
                    group[j] = fhe::addMod(u, v, p_);
                    group[j + t] = fhe::mulMod(fhe::subMod(u, v, p_),
                                               inv_roots_[m + i], p_);
                }
            }
        }
        for (std::size_t j = 0; j < n_; ++j) {
            values[j] = fhe::mulMod(values[j], inv_n_, p_);
        }
    }

  private:
    std::size_t n_;
    std::uint64_t p_;
    std::uint64_t inv_n_;
    std::vector<std::uint64_t> roots_;     ///< ψ^rev(i).
    std::vector<std::uint64_t> inv_roots_; ///< ψ^-rev(i).
};

/// Minimum seconds per call for two functions timed in alternating
/// windows. A one-sided measurement is at the mercy of whatever the
/// machine was doing while that side ran; alternating spreads any
/// transient (VM neighbor, frequency excursion) across both sides, and
/// the per-side minimum is the least-disturbed estimate of each.
void
interleavedSecondsPerOp(double window_s, int passes,
                        const std::function<void()>& a_fn,
                        const std::function<void()>& b_fn,
                        double& a_best, double& b_best)
{
    a_fn();
    b_fn(); // warm caches and branch predictors
    a_best = 0.0;
    b_best = 0.0;
    for (int pass = 0; pass < passes; ++pass) {
        for (int side = 0; side < 2; ++side) {
            const std::function<void()>& fn = side == 0 ? a_fn : b_fn;
            double& best = side == 0 ? a_best : b_best;
            int reps = 1;
            for (;;) {
                const Stopwatch timer;
                for (int r = 0; r < reps; ++r) fn();
                const double elapsed = timer.elapsedSeconds();
                if (elapsed >= window_s) {
                    const double per_op = elapsed / reps;
                    if (best == 0.0 || per_op < best) best = per_op;
                    break;
                }
                reps *= 2;
            }
        }
    }
}

struct BenchRow
{
    int n = 0;
    const char* op = "";
    double ref_s = 0.0;
    double new_s = 0.0;
    double speedup() const { return new_s > 0.0 ? ref_s / new_s : 0.0; }
};

} // namespace

int
main()
{
    const bool fast = [] {
        const char* v = std::getenv("CHEHAB_BENCH_FAST");
        return v != nullptr && std::string(v) != "0";
    }();
    const double window_s = fast ? 0.02 : 0.15;
    const int passes = fast ? 5 : 8;
    std::vector<int> sizes = {1 << 12, 1 << 13, 1 << 14};
    if (fast) sizes = {1 << 12};

    std::printf("[bench] NTT hot path, 32-bit entries (%s mode)\n"
                "  polymul ref: mulMod division per butterfly; "
                "fwd_simd/inv_simd ref: SIMD off\n\n",
                fast ? "fast" : "full");
    std::printf("%6s %8s %12s %12s %9s\n", "n", "op", "ref_us", "new_us",
                "speedup");

    std::vector<BenchRow> rows;
    for (const int n : sizes) {
        const std::uint64_t p =
            fhe::findNttPrimes(30, 1,
                               static_cast<std::uint64_t>(2 * n))[0];
        const std::shared_ptr<const fhe::NttTables> tables =
            fhe::acquireNttTables(n, p);
        const DivisionNtt reference(n, p);
        const fhe::Barrett& barrett = tables->reducer();
        const std::vector<std::uint32_t> a = randomPoly(n, p, 1);
        const std::vector<std::uint32_t> b = randomPoly(n, p, 2);
        const std::vector<std::uint64_t> wide_a(a.begin(), a.end());
        const std::vector<std::uint64_t> wide_b(b.begin(), b.end());

        // Full negacyclic product: two forwards, a pointwise multiply,
        // one inverse. The reference divides in every reduction.
        std::vector<std::uint64_t> ref = wide_a;
        std::vector<std::uint64_t> ref2 = wide_b;
        const auto reference_product = [&] {
            ref = wide_a;
            ref2 = wide_b;
            reference.forward(ref.data());
            reference.forward(ref2.data());
            for (int i = 0; i < n; ++i) {
                ref[static_cast<std::size_t>(i)] = fhe::mulMod(
                    ref[static_cast<std::size_t>(i)],
                    ref2[static_cast<std::size_t>(i)], p);
            }
            reference.inverse(ref.data());
        };
        std::vector<std::uint32_t> scratch = a;
        std::vector<std::uint32_t> scratch2 = b;
        const auto product = [&] {
            scratch = a;
            scratch2 = b;
            tables->forward(scratch.data());
            tables->forward(scratch2.data());
            for (int i = 0; i < n; ++i) {
                scratch[static_cast<std::size_t>(i)] =
                    static_cast<std::uint32_t>(barrett.mulMod(
                        scratch[static_cast<std::size_t>(i)],
                        scratch2[static_cast<std::size_t>(i)]));
            }
            tables->inverse(scratch.data());
        };
        // The timed sides must agree before the numbers mean anything.
        reference_product();
        product();
        if (!std::equal(scratch.begin(), scratch.end(), ref.begin())) {
            std::fprintf(stderr, "bench_ntt: polymul mismatch at n=%d\n",
                         n);
            return 1;
        }
        BenchRow mul{n, "polymul"};
        interleavedSecondsPerOp(window_s, passes, reference_product, product,
                                mul.ref_s, mul.new_s);
        std::vector<BenchRow> n_rows = {mul};

        // Scalar path vs the 8-lane kernel: both sides share this tables
        // instance; only the process-wide switch differs. The switch
        // flips once per call, a relaxed atomic store.
        if (fhe::simdSupported()) {
            const auto transform = [&](bool simd, bool inverse,
                                       std::vector<std::uint32_t>& words) {
                fhe::setSimdEnabled(simd);
                if (inverse) {
                    tables->inverse(words.data());
                } else {
                    tables->forward(words.data());
                }
            };
            for (const bool inverse : {false, true}) {
                std::vector<std::uint32_t> lhs = a;
                std::vector<std::uint32_t> rhs = a;
                transform(false, inverse, lhs);
                transform(true, inverse, rhs);
                if (lhs != rhs) {
                    std::fprintf(stderr,
                                 "bench_ntt: SIMD %s mismatch at n=%d\n",
                                 inverse ? "inverse" : "forward", n);
                    return 1;
                }
            }
            // Transforms keep words in [0, p), so the same scratch
            // buffer stays a valid input across reps.
            scratch = a;
            for (const bool inverse : {false, true}) {
                BenchRow row{n, inverse ? "inv_simd" : "fwd_simd"};
                interleavedSecondsPerOp(
                    window_s, passes,
                    [&] { transform(false, inverse, scratch); },
                    [&] { transform(true, inverse, scratch); }, row.ref_s,
                    row.new_s);
                n_rows.push_back(row);
            }
            fhe::setSimdEnabled(true);
        }
        for (const BenchRow& row : n_rows) {
            std::printf("%6d %8s %12.2f %12.2f %8.2fx\n", row.n, row.op,
                        row.ref_s * 1e6, row.new_s * 1e6, row.speedup());
            rows.push_back(row);
        }
    }

    // Allocations per op: a steady-state SealLite multiply on a warm
    // arena must mint zero fresh buffers — every poly and scratch
    // acquisition is served from the freelist.
    std::uint64_t allocs_per_op = 0;
    {
        fhe::SealLiteParams params;
        params.n = 1024;
        fhe::SealLite scheme(params);
        const fhe::Plaintext plain = scheme.encode({1, 2, 3, 4});
        const fhe::Ciphertext ct = scheme.encrypt(plain);
        // Priming pass populates the freelist with every size class the
        // op cycles through.
        fhe::Ciphertext warm = scheme.multiply(ct, ct);
        scheme.recycle(std::move(warm));
        const fhe::PolyArena::Stats before = scheme.arenaStats();
        const int ops = 16;
        for (int i = 0; i < ops; ++i) {
            fhe::Ciphertext out = scheme.multiply(ct, ct);
            scheme.recycle(std::move(out));
        }
        const fhe::PolyArena::Stats after = scheme.arenaStats();
        allocs_per_op = (after.allocs - before.allocs) /
                        static_cast<std::uint64_t>(ops);
        std::printf("\n[bench] arena: %llu allocs / %llu reuses across "
                    "%d steady-state multiplies -> %llu allocs/op "
                    "(floor: 0)\n",
                    static_cast<unsigned long long>(after.allocs -
                                                    before.allocs),
                    static_cast<unsigned long long>(after.reuses -
                                                    before.reuses),
                    ops, static_cast<unsigned long long>(allocs_per_op));
    }

    // Both transform directions are gated at one floor.
    constexpr double kSimdFloor = 2.5;
    double polymul_worst = 0.0;
    double fwd_simd_worst = 0.0;
    double inv_simd_worst = 0.0;
    for (const BenchRow& row : rows) {
        if (std::string(row.op) == "polymul" &&
            (polymul_worst == 0.0 || row.speedup() < polymul_worst)) {
            polymul_worst = row.speedup();
        }
        if (row.n < 4096) continue;
        if (std::string(row.op) == "fwd_simd" &&
            (fwd_simd_worst == 0.0 || row.speedup() < fwd_simd_worst)) {
            fwd_simd_worst = row.speedup();
        }
        if (std::string(row.op) == "inv_simd" &&
            (inv_simd_worst == 0.0 || row.speedup() < inv_simd_worst)) {
            inv_simd_worst = row.speedup();
        }
    }
    std::printf("\n[bench] worst-case poly-multiply speedup over the "
                "division reference: %.2fx (floor: 2x)\n",
                polymul_worst);
    if (fhe::simdSupported()) {
        std::printf("[bench] AVX2-over-scalar speedup at n >= 4096: "
                    "forward %.2fx, inverse %.2fx (floor: %.2fx)\n",
                    fwd_simd_worst, inv_simd_worst, kSimdFloor);
    } else {
        std::printf("[bench] AVX2 rows skipped (%s)\n",
                    fhe::simdCompiledIn() ? "cpu lacks AVX2"
                                          : "not compiled in");
    }

    std::filesystem::create_directories("results");
    CsvWriter csv("results/ntt.csv",
                  {"n", "op", "ref_us", "new_us", "speedup"});
    for (const BenchRow& row : rows) {
        csv.writeRow(row.n, row.op, row.ref_s * 1e6, row.new_s * 1e6,
                     row.speedup());
    }
    std::printf("[bench] wrote results/ntt.csv\n");

    // The CI smoke treats a regression below the acceptance floors as a
    // failure: the hot path cannot silently rot back to divisions, the
    // AVX2 dispatch cannot quietly stop paying for itself, and the
    // evaluator cannot start leaking allocations past the arena.
    if (polymul_worst < 2.0) return 1;
    if (fhe::simdSupported() &&
        (fwd_simd_worst < kSimdFloor || inv_simd_worst < kSimdFloor)) {
        return 1;
    }
    if (allocs_per_op != 0) return 1;
    return 0;
}
