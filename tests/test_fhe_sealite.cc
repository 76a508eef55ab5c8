/// \file
/// SealLite correctness suite: modular arithmetic, NTT round-trips,
/// BigInt, batching encode/decode, encryption round-trips, every
/// homomorphic operation against plaintext semantics, rotation/Galois
/// behaviour, noise-budget monotonicity (App. H.1), parameter
/// validation, differential checks of the NTT batching, the fixed-limb
/// decryption and the division-free mod switch against the O(n^2)
/// transform, the BigInt recomposition and the `%`/mulMod drop they
/// replaced, and golden hashes of the evaluator's ciphertext words.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "fhe/bigint.h"
#include "fhe/modarith.h"
#include "fhe/ntt.h"
#include "fhe/sealite.h"
#include "support/rng.h"

namespace chehab::fhe {
namespace {

SealLiteParams
testParams()
{
    SealLiteParams params;
    params.n = 256;        // Toy degree: fast tests, 128 slots.
    params.prime_bits = 30;
    params.prime_count = 4;
    params.plain_modulus = 65537;
    params.seed = 99;
    return params;
}

SealLite&
scheme()
{
    static SealLite instance(testParams());
    return instance;
}

std::int64_t
tmod(std::int64_t x)
{
    const std::int64_t t = 65537;
    const std::int64_t r = x % t;
    return r < 0 ? r + t : r;
}

// -- modular arithmetic ------------------------------------------------

TEST(ModArithTest, PowAndInv)
{
    EXPECT_EQ(powMod(2, 10, 1000003), 1024u);
    const std::uint64_t p = 998244353;
    const std::uint64_t inv = invMod(12345, p);
    EXPECT_EQ(mulMod(12345, inv, p), 1u);
}

TEST(ModArithTest, PrimalityKnownValues)
{
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(65537));
    EXPECT_TRUE(isPrime(998244353));
    EXPECT_FALSE(isPrime(1));
    EXPECT_FALSE(isPrime(65536));
    EXPECT_FALSE(isPrime(3215031751ULL)); // Strong pseudoprime to 2,3,5,7.
}

TEST(ModArithTest, NttPrimesAreFriendly)
{
    const auto primes = findNttPrimes(30, 3, 512);
    ASSERT_EQ(primes.size(), 3u);
    for (std::uint64_t p : primes) {
        EXPECT_TRUE(isPrime(p));
        EXPECT_EQ((p - 1) % 512, 0u);
    }
    EXPECT_NE(primes[0], primes[1]);
}

TEST(ModArithTest, PrimitiveRootHasExactOrder)
{
    const std::uint64_t p = findNttPrimes(30, 1, 512)[0];
    const std::uint64_t psi = findPrimitiveRoot(512, p);
    EXPECT_EQ(powMod(psi, 256, p), p - 1); // psi^(n) = -1.
    EXPECT_EQ(powMod(psi, 512, p), 1u);
}

// -- NTT -----------------------------------------------------------------

TEST(NttTest, RoundTrip)
{
    const int n = 64;
    const std::uint64_t p = findNttPrimes(30, 1, 2 * n)[0];
    const NttTables tables(n, p);
    Rng rng(5);
    std::vector<std::uint32_t> values(n);
    for (auto& v : values) v = static_cast<std::uint32_t>(rng.uniformInt(p));
    std::vector<std::uint32_t> copy = values;
    tables.forward(copy.data());
    tables.inverse(copy.data());
    EXPECT_EQ(copy, values);
}

TEST(NttTest, MatchesSchoolbookNegacyclic)
{
    const int n = 32;
    const std::uint64_t p = findNttPrimes(30, 1, 2 * n)[0];
    const NttTables tables(n, p);
    Rng rng(6);
    std::vector<std::uint32_t> a(n), b(n);
    for (auto& v : a) v = static_cast<std::uint32_t>(rng.uniformInt(p));
    for (auto& v : b) v = static_cast<std::uint32_t>(rng.uniformInt(p));

    // Schoolbook x^n = -1 product.
    std::vector<std::uint32_t> expected(n, 0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const std::uint64_t prod = mulMod(a[i], b[j], p);
            if (i + j < n) {
                expected[i + j] = static_cast<std::uint32_t>(
                    addMod(expected[i + j], prod, p));
            } else {
                expected[i + j - n] = static_cast<std::uint32_t>(
                    subMod(expected[i + j - n], prod, p));
            }
        }
    }

    std::vector<std::uint32_t> fa = a, fb = b;
    tables.forward(fa.data());
    tables.forward(fb.data());
    for (int i = 0; i < n; ++i) {
        fa[i] = static_cast<std::uint32_t>(mulMod(fa[i], fb[i], p));
    }
    tables.inverse(fa.data());
    EXPECT_EQ(fa, expected);
}

// -- BigInt ----------------------------------------------------------------

TEST(BigIntTest, BasicArithmetic)
{
    const BigInt a(0xFFFFFFFFFFFFFFFFULL);
    const BigInt b = a.add(BigInt(1));
    EXPECT_EQ(b.bitLength(), 65);
    EXPECT_EQ(b.subtract(BigInt(1)).compare(a), 0);
    EXPECT_EQ(a.multiplySmall(2).toString(), "36893488147419103230");
}

TEST(BigIntTest, MultiplyAndDivmod)
{
    const BigInt a(1234567890123456789ULL);
    const BigInt sq = a.multiply(a);
    std::uint64_t rem = 0;
    const BigInt back = sq.divmodSmall(1234567890123456789ULL, rem);
    EXPECT_EQ(rem, 0u);
    EXPECT_EQ(back.compare(a), 0);
}

TEST(BigIntTest, ReduceBySubtraction)
{
    const BigInt m(1000000007ULL);
    const BigInt v = m.multiplySmall(3).add(BigInt(42));
    EXPECT_EQ(v.reduceBySubtraction(m).toString(), "42");
}

// -- batching ----------------------------------------------------------------

TEST(SealLiteTest, EncodeDecodeRoundTrip)
{
    std::vector<std::int64_t> values = {1, 2, 3, 42, 65536, 0, 9999};
    const Plaintext plain = scheme().encode(values);
    const std::vector<std::int64_t> decoded = scheme().decode(plain);
    ASSERT_EQ(decoded.size(), static_cast<std::size_t>(scheme().slots()));
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(decoded[i], values[i]) << i;
    }
    for (std::size_t i = values.size(); i < decoded.size(); ++i) {
        EXPECT_EQ(decoded[i], 0) << i;
    }
}

TEST(SealLiteTest, EncryptDecryptRoundTrip)
{
    std::vector<std::int64_t> values = {7, 0, 123, 65535, 1};
    const Ciphertext ct = scheme().encrypt(scheme().encode(values));
    const std::vector<std::int64_t> decrypted = scheme().decrypt(ct);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(decrypted[i], values[i]) << i;
    }
}

TEST(SealLiteTest, HomomorphicAddSubNegate)
{
    const std::vector<std::int64_t> a = {10, 20, 30};
    const std::vector<std::int64_t> b = {1, 2, 65530};
    const Ciphertext ca = scheme().encrypt(scheme().encode(a));
    const Ciphertext cb = scheme().encrypt(scheme().encode(b));

    const auto sum = scheme().decrypt(scheme().add(ca, cb));
    const auto diff = scheme().decrypt(scheme().sub(ca, cb));
    const auto negated = scheme().decrypt(scheme().negate(ca));
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(sum[static_cast<std::size_t>(i)], tmod(a[static_cast<std::size_t>(i)] + b[static_cast<std::size_t>(i)]));
        EXPECT_EQ(diff[static_cast<std::size_t>(i)], tmod(a[static_cast<std::size_t>(i)] - b[static_cast<std::size_t>(i)]));
        EXPECT_EQ(negated[static_cast<std::size_t>(i)], tmod(-a[static_cast<std::size_t>(i)]));
    }
}

TEST(SealLiteTest, PlainOperations)
{
    const std::vector<std::int64_t> a = {5, 6, 7};
    const std::vector<std::int64_t> w = {2, 3, 4};
    const Ciphertext ca = scheme().encrypt(scheme().encode(a));
    const Plaintext pw = scheme().encode(w);

    const auto sum = scheme().decrypt(scheme().addPlain(ca, pw));
    const auto prod = scheme().decrypt(scheme().mulPlain(ca, pw));
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(sum[static_cast<std::size_t>(i)],
                  tmod(a[static_cast<std::size_t>(i)] + w[static_cast<std::size_t>(i)]));
        EXPECT_EQ(prod[static_cast<std::size_t>(i)],
                  tmod(a[static_cast<std::size_t>(i)] * w[static_cast<std::size_t>(i)]));
    }
}

TEST(SealLiteTest, CiphertextMultiplyWithRelin)
{
    const std::vector<std::int64_t> a = {3, 1000, 65536};
    const std::vector<std::int64_t> b = {9, 7, 2};
    const Ciphertext ca = scheme().encrypt(scheme().encode(a));
    const Ciphertext cb = scheme().encrypt(scheme().encode(b));
    const auto prod = scheme().decrypt(scheme().multiply(ca, cb));
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(prod[static_cast<std::size_t>(i)],
                  tmod(a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)]));
    }
}

TEST(SealLiteTest, MultiplyDepthTwo)
{
    const std::vector<std::int64_t> a = {2, 3};
    const Ciphertext ca = scheme().encrypt(scheme().encode(a));
    const Ciphertext sq = scheme().multiply(ca, ca);
    const Ciphertext quad = scheme().multiply(sq, sq);
    const auto out = scheme().decrypt(quad);
    EXPECT_EQ(out[0], 16);
    EXPECT_EQ(out[1], 81);
}

TEST(SealLiteTest, RotationMatchesPaperConvention)
{
    SealLite& s = scheme();
    s.makeGaloisKeys({1, 2});
    std::vector<std::int64_t> values(static_cast<std::size_t>(s.slots()), 0);
    for (int i = 0; i < s.slots(); ++i) values[static_cast<std::size_t>(i)] = i + 1;
    const Ciphertext ct = s.encrypt(s.encode(values));

    // v << 1: slot i takes the value of slot i+1 (cyclic), §3.1.
    const auto rotated = s.decrypt(s.rotate(ct, 1));
    for (int i = 0; i < s.slots(); ++i) {
        EXPECT_EQ(rotated[static_cast<std::size_t>(i)],
                  values[static_cast<std::size_t>((i + 1) % s.slots())]);
    }
    const auto rotated2 = s.decrypt(s.rotate(ct, 2));
    EXPECT_EQ(rotated2[0], values[2]);
}

TEST(SealLiteTest, NegativeRotationIsRight)
{
    SealLite& s = scheme();
    s.makeGaloisKeys({-1});
    std::vector<std::int64_t> values = {10, 20, 30};
    const Ciphertext ct = s.encrypt(s.encode(values));
    const auto rotated = s.decrypt(s.rotate(ct, -1));
    // Right rotation: slot 1 receives slot 0.
    EXPECT_EQ(rotated[1], 10);
    EXPECT_EQ(rotated[2], 20);
}

TEST(SealLiteTest, GaloisKeyManagement)
{
    SealLite s(testParams());
    EXPECT_TRUE(s.hasGaloisKey(0)); // Identity needs no key.
    EXPECT_FALSE(s.hasGaloisKey(3));
    s.makeGaloisKeys({3, 3, 3});
    EXPECT_TRUE(s.hasGaloisKey(3));
    EXPECT_EQ(s.numGaloisKeys(), 1); // Deduplicated.
}

TEST(SealLiteTest, RotateAndAddComputesDotProductReduction)
{
    // The rotate-reduce ladder the TRS emits (log-depth partial sums).
    SealLite s(testParams());
    s.makeGaloisKeys({1, 2});
    const std::vector<std::int64_t> a = {1, 2, 3, 4};
    const std::vector<std::int64_t> b = {5, 6, 7, 8};
    Ciphertext v = s.multiply(s.encrypt(s.encode(a)),
                              s.encrypt(s.encode(b)));
    v = s.add(v, s.rotate(v, 2));
    v = s.add(v, s.rotate(v, 1));
    // Slot 0 = 1*5 + 2*6 + 3*7 + 4*8 = 70.
    EXPECT_EQ(s.decrypt(v)[0], 70);
}

// -- noise ----------------------------------------------------------------

TEST(SealLiteNoiseTest, FreshBudgetPositiveAndScalesWithQ)
{
    SealLite small(testParams());
    SealLiteParams bigger = testParams();
    bigger.prime_count = 6;
    SealLite big(bigger);
    EXPECT_GT(small.freshNoiseBudget(), 40);
    EXPECT_GT(big.freshNoiseBudget(), small.freshNoiseBudget() + 30);
}

TEST(SealLiteNoiseTest, AdditionConsumesLittle)
{
    SealLite s(testParams());
    const Ciphertext ct = s.encrypt(s.encode({1, 2, 3}));
    const int before = s.noiseBudgetBits(ct);
    const int after = s.noiseBudgetBits(s.add(ct, ct));
    EXPECT_GE(before, after);
    EXPECT_LE(before - after, 3);
}

TEST(SealLiteNoiseTest, MultiplicationConsumesMuchMore)
{
    SealLite s(testParams());
    const Ciphertext ct = s.encrypt(s.encode({5, 7}));
    const int before = s.noiseBudgetBits(ct);
    const int after_mul = s.noiseBudgetBits(s.multiply(ct, ct));
    const int after_add = s.noiseBudgetBits(s.add(ct, ct));
    EXPECT_GT(before - after_mul, 10);
    EXPECT_GT(before - after_mul, 3 * (before - after_add));
}

TEST(SealLiteNoiseTest, RotationConsumesModestBudget)
{
    SealLite s(testParams());
    s.makeGaloisKeys({1});
    const Ciphertext ct = s.encrypt(s.encode({1, 2, 3, 4}));
    const int before = s.noiseBudgetBits(ct);
    const int after = s.noiseBudgetBits(s.rotate(ct, 1));
    EXPECT_GE(before, after);
    // Key switching adds bounded noise, far below a multiplication.
    const int mul_cost =
        before - s.noiseBudgetBits(s.multiply(ct, ct));
    EXPECT_LT(before - after, mul_cost);
}

TEST(SealLiteNoiseTest, DeepCircuitExhaustsBudget)
{
    SealLiteParams params = testParams();
    params.prime_count = 3;
    SealLite s(params);
    Ciphertext ct = s.encrypt(s.encode({2}));
    int budget = s.noiseBudgetBits(ct);
    int depth = 0;
    while (budget > 0 && depth < 12) {
        ct = s.multiply(ct, ct);
        budget = s.noiseBudgetBits(ct);
        ++depth;
    }
    // A small modulus must run out within a few squarings — the paper's
    // "Coyote exhausts the entire noise budget" scenario (§7.5).
    EXPECT_LE(depth, 8);
    EXPECT_LE(budget, 0);
}

// -- parameter validation ---------------------------------------------------

TEST(SealLiteParamsTest, DefaultsAndTestParamsAreValid)
{
    EXPECT_EQ(SealLiteParams{}.validate(), "");
    EXPECT_EQ(testParams().validate(), "");
}

TEST(SealLiteParamsTest, RejectsEveryOutOfRangeField)
{
    const auto rejects = [](auto mutate) {
        SealLiteParams params = testParams();
        mutate(params);
        return !params.validate().empty();
    };
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.n = 1000; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.n = 4; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.n = 65536; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.plain_modulus = 65539; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.plain_modulus = 65535; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.plain_modulus = 0; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.prime_bits = 32; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.prime_bits = 12; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.prime_count = 0; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.prime_count = 17; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.decomp_bits = 0; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.decomp_bits = 31; }));
    EXPECT_TRUE(rejects([](SealLiteParams& p) { p.error_stddev_x10 = -1; }));
    // t is a prime ≡ 1 (mod 2n) but too wide for the chain primes.
    EXPECT_TRUE(
        rejects([](SealLiteParams& p) { p.plain_modulus = 998244353; }));
    EXPECT_FALSE(rejects([](SealLiteParams& p) { p.prime_count = 16; }));
    EXPECT_FALSE(rejects([](SealLiteParams& p) { p.prime_bits = 31; }));
}

TEST(SealLiteParamsTest, ConstructorThrowsInsteadOfAborting)
{
    SealLiteParams params = testParams();
    params.n = 1000;
    EXPECT_THROW(SealLite{params}, std::invalid_argument);
    params = testParams();
    params.plain_modulus = 65539;
    EXPECT_THROW(SealLite{params}, std::invalid_argument);
}

// -- differential: NTT batching vs. the O(n^2) transform ---------------------

/// The O(n^2) batching transform SealLite used before the NTT path,
/// kept verbatim as the bit-for-bit reference: slot j of row 0 is the
/// evaluation at zeta^(e_j), e_j = 3^j mod 2n.
class ReferenceBatching
{
  public:
    ReferenceBatching(int n, std::uint64_t t) : n_(n), t_(t)
    {
        const auto two_n = static_cast<std::uint64_t>(2 * n);
        const std::uint64_t zeta = findPrimitiveRoot(two_n, t);
        zeta_powers_.resize(two_n);
        std::uint64_t power = 1;
        for (std::uint64_t& z : zeta_powers_) {
            z = power;
            power = mulMod(power, zeta, t);
        }
        exponents_.resize(static_cast<std::size_t>(n) / 2);
        std::uint64_t e = 1;
        for (std::uint64_t& exponent : exponents_) {
            exponent = e;
            e = (e * 3) % two_n;
        }
        inv_n_ = invMod(static_cast<std::uint64_t>(n) % t, t);
    }

    std::vector<std::uint64_t>
    encode(const std::vector<std::int64_t>& values) const
    {
        const auto two_n = static_cast<std::uint64_t>(2 * n_);
        std::vector<std::uint64_t> slot_values(exponents_.size(), 0);
        for (std::size_t j = 0; j < values.size(); ++j) {
            const std::int64_t v = values[j] % static_cast<std::int64_t>(t_);
            slot_values[j] = v >= 0 ? static_cast<std::uint64_t>(v)
                                    : t_ - static_cast<std::uint64_t>(-v);
        }
        std::vector<std::uint64_t> coeffs(static_cast<std::size_t>(n_), 0);
        for (int k = 0; k < n_; ++k) {
            std::uint64_t acc = 0;
            for (std::size_t j = 0; j < exponents_.size(); ++j) {
                if (slot_values[j] == 0) continue;
                const std::uint64_t exponent =
                    (two_n - (exponents_[j] * static_cast<std::uint64_t>(k)) %
                                 two_n) %
                    two_n;
                acc = addMod(acc,
                             mulMod(slot_values[j], zeta_powers_[exponent], t_),
                             t_);
            }
            coeffs[static_cast<std::size_t>(k)] = mulMod(acc, inv_n_, t_);
        }
        return coeffs;
    }

    std::vector<std::int64_t>
    decode(const std::vector<std::uint64_t>& coeffs) const
    {
        const auto two_n = static_cast<std::uint64_t>(2 * n_);
        std::vector<std::int64_t> values(exponents_.size(), 0);
        for (std::size_t j = 0; j < exponents_.size(); ++j) {
            std::uint64_t acc = 0;
            for (int k = 0; k < n_; ++k) {
                const std::uint64_t coeff = coeffs[static_cast<std::size_t>(k)];
                if (coeff == 0) continue;
                const std::uint64_t exponent =
                    (exponents_[j] * static_cast<std::uint64_t>(k)) % two_n;
                acc = addMod(acc, mulMod(coeff, zeta_powers_[exponent], t_),
                             t_);
            }
            values[j] = static_cast<std::int64_t>(acc);
        }
        return values;
    }

  private:
    int n_;
    std::uint64_t t_;
    std::vector<std::uint64_t> zeta_powers_;
    std::vector<std::uint64_t> exponents_;
    std::uint64_t inv_n_ = 0;
};

/// Restores the process-wide SIMD dispatch flag on scope exit.
class SimdRestore
{
  public:
    SimdRestore() : initial_(simdEnabled()) {}
    ~SimdRestore() { setSimdEnabled(initial_); }

  private:
    bool initial_;
};

struct RingCase
{
    int n;
    std::uint64_t t;
};

const std::vector<RingCase>&
ringCases()
{
    static const std::vector<RingCase> cases = {
        {8, 17},       {16, 97},      {1024, 65537},
        {1024, 12289}, {4096, 65537}, {4096, 40961}};
    return cases;
}

SealLiteParams
ringParams(const RingCase& ring, int prime_count)
{
    SealLiteParams params;
    params.n = ring.n;
    params.plain_modulus = ring.t;
    params.prime_count = prime_count;
    params.seed = 0xd1ff + static_cast<std::uint64_t>(ring.n) + ring.t +
                  static_cast<std::uint64_t>(prime_count);
    return params;
}

TEST(SealLiteDifferentialTest, BatchingMatchesQuadraticTransform)
{
    const SimdRestore restore;
    int prime_count = 2;
    for (const RingCase& ring : ringCases()) {
        SCOPED_TRACE("n=" + std::to_string(ring.n) +
                     " t=" + std::to_string(ring.t));
        // Batching depends on (n, t) only; the chain length cycles so
        // every prime_count in [2, 8] builds a scheme here too.
        const SealLite s(ringParams(ring, prime_count));
        prime_count = prime_count == 8 ? 2 : prime_count + 1;
        const ReferenceBatching reference(ring.n, ring.t);
        const auto t = static_cast<std::int64_t>(ring.t);
        const auto slots = static_cast<std::size_t>(s.slots());
        Rng rng(static_cast<std::uint64_t>(ring.n) * 31 + ring.t);

        std::vector<std::vector<std::int64_t>> rows;
        std::vector<std::int64_t> full(slots);
        for (std::int64_t& v : full) v = rng.uniformRange(0, t - 1);
        rows.push_back(full);
        std::vector<std::int64_t> partial(slots / 3 + 1);
        for (std::int64_t& v : partial) v = rng.uniformRange(0, t - 1);
        rows.push_back(partial);
        std::vector<std::int64_t> negative(slots);
        for (std::int64_t& v : negative) v = rng.uniformRange(-3 * t, -1);
        negative[0] = -1;
        negative[1] = -t;
        negative[2] = std::numeric_limits<std::int64_t>::min();
        negative[3] = std::numeric_limits<std::int64_t>::max();
        rows.push_back(negative);
        rows.emplace_back(); // Empty row: the zero plaintext.

        std::vector<std::vector<std::uint64_t>> want_coeffs;
        for (const auto& row : rows) {
            want_coeffs.push_back(reference.encode(row));
        }
        // Decode inputs: every encoded row, a random plaintext, and
        // unreduced coefficients (decode reduces mod t first).
        std::vector<std::vector<std::uint64_t>> plains = want_coeffs;
        std::vector<std::uint64_t> random(static_cast<std::size_t>(ring.n));
        for (std::uint64_t& c : random) c = rng.uniformInt(ring.t);
        plains.push_back(random);
        std::vector<std::uint64_t> wide(static_cast<std::size_t>(ring.n));
        for (std::uint64_t& c : wide) c = rng.next();
        plains.push_back(wide);
        std::vector<std::vector<std::int64_t>> want_slots;
        for (const auto& coeffs : plains) {
            want_slots.push_back(reference.decode(coeffs));
        }

        for (bool simd : {true, false}) {
            SCOPED_TRACE(simd ? "simd on" : "simd off");
            setSimdEnabled(simd);
            for (std::size_t r = 0; r < rows.size(); ++r) {
                EXPECT_EQ(s.encode(rows[r]).coeffs, want_coeffs[r]) << r;
            }
            for (std::size_t p = 0; p < plains.size(); ++p) {
                Plaintext plain;
                plain.coeffs = plains[p];
                EXPECT_EQ(s.decode(plain), want_slots[p]) << p;
            }
        }
    }
}

// -- differential: fixed-limb decryption vs. BigInt recomposition ------------

/// What decryptPlain and noiseBudgetBits computed with heap BigInts per
/// coefficient before the fixed-limb recomposition: the reference.
struct ReferenceDecryption
{
    std::vector<std::uint64_t> plain;
    int budget = 0;
};

ReferenceDecryption
referenceDecrypt(const SealLite& s, const Ciphertext& ct)
{
    const RnsPoly v = s.decryptionPhase(ct);
    const std::uint64_t t = s.params().plain_modulus;
    const std::vector<std::uint64_t> primes(
        s.primeChain().begin(), s.primeChain().begin() + v.k);
    BigInt q(1);
    for (std::uint64_t p : primes) q = q.multiplySmall(p);
    std::uint64_t rem = 0;
    const BigInt half_q = q.divmodSmall(2, rem);
    std::uint64_t q_mod_t = 0;
    q.divmodSmall(t, q_mod_t);
    std::vector<BigInt> q_hat;
    std::vector<std::uint64_t> q_hat_inv;
    for (std::size_t i = 0; i < primes.size(); ++i) {
        BigInt hat(1);
        for (std::size_t j = 0; j < primes.size(); ++j) {
            if (j != i) hat = hat.multiplySmall(primes[j]);
        }
        std::uint64_t hat_mod = 0;
        hat.divmodSmall(primes[i], hat_mod);
        q_hat_inv.push_back(invMod(hat_mod, primes[i]));
        q_hat.push_back(hat);
    }

    ReferenceDecryption out;
    BigInt max_magnitude;
    for (int j = 0; j < v.n; ++j) {
        BigInt value;
        for (std::size_t i = 0; i < primes.size(); ++i) {
            const std::uint64_t scaled = mulMod(
                v.component(static_cast<int>(i))[j], q_hat_inv[i], primes[i]);
            value = value.add(q_hat[i].multiplySmall(scaled));
        }
        value = value.reduceBySubtraction(q);
        std::uint64_t value_mod_t = 0;
        value.divmodSmall(t, value_mod_t);
        if (value.compare(half_q) > 0) {
            value_mod_t = subMod(value_mod_t, q_mod_t, t);
        }
        out.plain.push_back(value_mod_t);
        const BigInt complement = q.subtract(value);
        const BigInt magnitude =
            value.compare(complement) <= 0 ? value : complement;
        if (magnitude.compare(max_magnitude) > 0) max_magnitude = magnitude;
    }
    out.budget = (q.bitLength() - 1) - max_magnitude.bitLength();
    return out;
}

/// decryptPlain and noiseBudgetBits against the reference at every level
/// from \p ct's down to 1, with SIMD on and off.
void
expectDecryptionMatchesAtEveryLevel(const SealLite& s, const Ciphertext& ct)
{
    const SimdRestore restore;
    Ciphertext at_level = s.clone(ct);
    for (int level = s.level(ct); level >= 1; --level) {
        SCOPED_TRACE("level " + std::to_string(level));
        s.modSwitchTo(at_level, level);
        const ReferenceDecryption want = referenceDecrypt(s, at_level);
        for (bool simd : {true, false}) {
            setSimdEnabled(simd);
            EXPECT_EQ(s.decryptPlain(at_level).coeffs, want.plain) << simd;
            EXPECT_EQ(s.noiseBudgetBits(at_level), want.budget) << simd;
        }
    }
}

TEST(SealLiteDifferentialTest, DecryptionMatchesBigIntAtEveryLevel)
{
    for (const RingCase& ring : ringCases()) {
        for (int prime_count = 2; prime_count <= 8; ++prime_count) {
            SCOPED_TRACE("n=" + std::to_string(ring.n) + " t=" +
                         std::to_string(ring.t) +
                         " k=" + std::to_string(prime_count));
            SealLite s(ringParams(ring, prime_count));
            Rng rng(static_cast<std::uint64_t>(prime_count) * 7 + ring.t);
            std::vector<std::int64_t> row(static_cast<std::size_t>(s.slots()));
            for (std::int64_t& v : row) {
                v = rng.uniformRange(0, static_cast<std::int64_t>(ring.t) - 1);
            }
            const Ciphertext fresh = s.encrypt(s.encode(row));
            expectDecryptionMatchesAtEveryLevel(s, fresh);
            // Square until the budget is gone, then once more so the
            // phase is noise through and through.
            Ciphertext exhausted = s.clone(fresh);
            int squarings = 0;
            while (s.noiseBudgetBits(exhausted) > 0 && squarings < 16) {
                exhausted = s.multiply(exhausted, exhausted);
                ++squarings;
            }
            exhausted = s.multiply(exhausted, exhausted);
            ASSERT_EQ(s.noiseBudgetBits(exhausted), 0);
            expectDecryptionMatchesAtEveryLevel(s, exhausted);
        }
    }
}

TEST(SealLiteDifferentialTest, DecryptionMatchesBigIntOnBoundaryPhases)
{
    // A ciphertext (c0, 0) has phase c0, so chosen residues probe the
    // recomposition's edges: 0, floor(q/2) and its neighbours, q - 1,
    // and uniformly random residues.
    SealLiteParams params = ringParams({16, 97}, 8);
    const SealLite s(params);
    const std::vector<std::uint64_t>& primes = s.primeChain();
    const int k = s.levels();
    BigInt q(1);
    for (std::uint64_t p : primes) q = q.multiplySmall(p);
    std::uint64_t rem = 0;
    const BigInt half_q = q.divmodSmall(2, rem);
    const std::vector<BigInt> targets = {
        BigInt(0), BigInt(1), half_q.subtract(BigInt(1)), half_q,
        half_q.add(BigInt(1)), q.subtract(BigInt(2)), q.subtract(BigInt(1))};

    Ciphertext ct;
    ct.c0.k = ct.c1.k = k;
    ct.c0.n = ct.c1.n = params.n;
    ct.c0.data.assign(static_cast<std::size_t>(k * params.n), 0);
    ct.c1.data.assign(static_cast<std::size_t>(k * params.n), 0);
    Rng rng(5);
    for (int j = 0; j < params.n; ++j) {
        for (int i = 0; i < k; ++i) {
            const std::uint64_t p = primes[static_cast<std::size_t>(i)];
            std::uint64_t residue = rng.uniformInt(p);
            if (j < static_cast<int>(targets.size())) {
                targets[static_cast<std::size_t>(j)].divmodSmall(p, residue);
            }
            ct.c0.component(i)[j] = residue;
        }
    }
    expectDecryptionMatchesAtEveryLevel(s, ct);
}

/// readout() against the reference at every level from \p ct's down to
/// 1, with SIMD on and off.
void
expectReadoutMatchesAtEveryLevel(const SealLite& s, const Ciphertext& ct)
{
    const SimdRestore restore;
    Ciphertext at_level = s.clone(ct);
    for (int level = s.level(ct); level >= 1; --level) {
        SCOPED_TRACE("level " + std::to_string(level));
        s.modSwitchTo(at_level, level);
        const ReferenceDecryption want = referenceDecrypt(s, at_level);
        for (bool simd : {true, false}) {
            setSimdEnabled(simd);
            const SealLite::Readout got = s.readout(at_level);
            EXPECT_EQ(got.plain.coeffs, want.plain) << simd;
            EXPECT_EQ(got.budget, want.budget) << simd;
        }
    }
}

TEST(SealLiteDifferentialTest, ReadoutMatchesBigIntOnFreshMultipliedAndExhausted)
{
    // The one-pass readout's plaintext and budget both come from one
    // recomposition per coefficient; each must equal the BigInt
    // reference's on a fresh, a once-multiplied and a budget-exhausted
    // ciphertext, at every level.
    for (const RingCase& ring : ringCases()) {
        for (const int prime_count : {3, 6}) {
            SCOPED_TRACE("n=" + std::to_string(ring.n) + " t=" +
                         std::to_string(ring.t) +
                         " k=" + std::to_string(prime_count));
            SealLite s(ringParams(ring, prime_count));
            Rng rng(static_cast<std::uint64_t>(prime_count) * 11 + ring.t);
            const auto row = [&] {
                std::vector<std::int64_t> values(
                    static_cast<std::size_t>(s.slots()));
                for (std::int64_t& v : values) {
                    v = rng.uniformRange(
                        0, static_cast<std::int64_t>(ring.t) - 1);
                }
                return values;
            };
            const Ciphertext fresh = s.encrypt(s.encode(row()));
            const Ciphertext other = s.encrypt(s.encode(row()));
            expectReadoutMatchesAtEveryLevel(s, fresh);
            const Ciphertext product = s.multiply(fresh, other);
            expectReadoutMatchesAtEveryLevel(s, product);
            Ciphertext exhausted = s.clone(product);
            int squarings = 0;
            while (s.readout(exhausted).budget > 0 && squarings < 16) {
                exhausted = s.multiply(exhausted, exhausted);
                ++squarings;
            }
            exhausted = s.multiply(exhausted, exhausted);
            ASSERT_EQ(s.readout(exhausted).budget, 0);
            expectReadoutMatchesAtEveryLevel(s, exhausted);
        }
    }
}

// -- differential: masked automorphism vs. the division-and-branch map -------

/// The automorphism with a 64-bit `%` and a negate branch per word, as
/// SealLite computed it before the mask: the word-level reference.
RnsPoly
referenceAutomorphism(const SealLite& s, const RnsPoly& a, std::uint64_t g)
{
    RnsPoly out = a;
    const auto two_n = static_cast<std::uint64_t>(2 * a.n);
    for (int i = 0; i < a.k; ++i) {
        const auto p = static_cast<std::uint32_t>(
            s.primeChain()[static_cast<std::size_t>(i)]);
        const std::uint32_t* x = a.component(i);
        std::uint32_t* y = out.component(i);
        for (int j = 0; j < a.n; ++j) {
            const std::uint64_t raw =
                (static_cast<std::uint64_t>(j) * g) % two_n;
            if (raw < static_cast<std::uint64_t>(a.n)) {
                y[raw] = x[j];
            } else {
                y[raw - a.n] = x[j] == 0 ? 0 : p - x[j];
            }
        }
    }
    return out;
}

TEST(SealLiteDifferentialTest, AutomorphismMatchesDivisionReference)
{
    // Every odd g below 2n: the row's rotations 3^s and their
    // conjugates 2n - 3^s, i.e. the whole Galois group. A third of the
    // input words are 0 (whose negation must stay 0) and a sixth p - 1.
    for (const RingCase ring :
         {RingCase{8, 17}, RingCase{16, 97}, RingCase{1024, 65537}}) {
        SCOPED_TRACE("n=" + std::to_string(ring.n));
        const SealLite s(ringParams(ring, 3));
        Rng rng(static_cast<std::uint64_t>(ring.n));
        RnsPoly input;
        input.k = s.levels();
        input.n = ring.n;
        input.data.resize(static_cast<std::size_t>(input.k) * ring.n);
        for (int i = 0; i < input.k; ++i) {
            const std::uint64_t p = s.primeChain()[static_cast<std::size_t>(i)];
            for (int j = 0; j < ring.n; ++j) {
                const int slot = (j + i) % 6;
                input.component(i)[j] = static_cast<std::uint32_t>(
                    slot < 2 ? 0 : slot == 2 ? p - 1 : rng.uniformInt(p));
            }
        }
        for (std::uint64_t g = 1; g < 2 * static_cast<std::uint64_t>(ring.n);
             g += 2) {
            const RnsPoly got = s.applyAutomorphism(input, g);
            ASSERT_EQ(got.k, input.k);
            ASSERT_EQ(got.data, referenceAutomorphism(s, input, g).data)
                << "g=" << g;
        }
    }
}

// -- differential: division-free mod switch vs. the `%`/mulMod drop ----------

/// The mod-switch drop with a `%` or a 128-bit mulMod per coefficient,
/// rebuilt from the public chain, kept as the word-level reference:
/// δ ≡ c (mod q_l), δ ≡ 0 (mod t), then c' = (c - δ)·q_l^{-1}·φ mod q_i
/// with φ the centered representative of q_l mod t.
void
referenceDrop(const SealLite& s, RnsPoly& poly)
{
    const std::vector<std::uint64_t>& primes = s.primeChain();
    const std::uint64_t t = s.params().plain_modulus;
    const int l = poly.k - 1;
    const std::uint64_t ql = primes[static_cast<std::size_t>(l)];
    const std::uint64_t ql_mod_t = ql % t;
    const std::uint64_t inv_ql_t = invMod(ql_mod_t, t);
    const bool phi_negative = ql_mod_t > t / 2;
    const std::uint64_t phi_abs = phi_negative ? t - ql_mod_t : ql_mod_t;
    const auto half_ql = static_cast<std::int64_t>(ql / 2);

    std::vector<std::int64_t> delta(static_cast<std::size_t>(poly.n));
    const std::uint32_t* last = poly.component(l);
    for (int x = 0; x < poly.n; ++x) {
        const auto r = static_cast<std::int64_t>(last[x]);
        const std::int64_t delta0 =
            r > half_ql ? r - static_cast<std::int64_t>(ql) : r;
        const std::uint64_t d0_mod_t =
            delta0 >= 0
                ? static_cast<std::uint64_t>(delta0) % t
                : (t - static_cast<std::uint64_t>(-delta0) % t) % t;
        const std::uint64_t u = mulMod((t - d0_mod_t) % t, inv_ql_t, t);
        const std::int64_t uc = u > t / 2 ? static_cast<std::int64_t>(u - t)
                                          : static_cast<std::int64_t>(u);
        delta[static_cast<std::size_t>(x)] =
            delta0 + static_cast<std::int64_t>(ql) * uc;
    }
    for (int i = 0; i < l; ++i) {
        const std::uint64_t qi = primes[static_cast<std::size_t>(i)];
        std::uint64_t phi_mod = phi_abs % qi;
        if (phi_negative && phi_mod != 0) phi_mod = qi - phi_mod;
        const std::uint64_t factor =
            mulMod(invMod(ql % qi, qi), phi_mod, qi);
        std::uint32_t* c = poly.component(i);
        for (int x = 0; x < poly.n; ++x) {
            const std::int64_t d = delta[static_cast<std::size_t>(x)];
            const std::uint64_t d_mod =
                d >= 0 ? static_cast<std::uint64_t>(d) % qi
                       : (qi - static_cast<std::uint64_t>(-d) % qi) % qi;
            c[x] = mulMod(subMod(c[x], d_mod, qi), factor, qi);
        }
    }
    poly.k = l;
    poly.data.resize(static_cast<std::size_t>(l) * poly.n);
}

/// A level-\p level ciphertext whose coefficients walk every pairing of
/// a last residue in {0, 1, ⌊q_l/2⌋, ⌊q_l/2⌋+1, q_l-1, uniform} with
/// surviving residues in {0, q_i-1, uniform}; the rest are uniform.
Ciphertext
craftedCiphertext(const SealLite& s, int level, Rng& rng)
{
    const std::vector<std::uint64_t>& primes = s.primeChain();
    const int n = s.params().n;
    const std::uint64_t ql = primes[static_cast<std::size_t>(level) - 1];
    const std::vector<std::uint64_t> last_edges = {0, 1, ql / 2, ql / 2 + 1,
                                                   ql - 1};
    const int pairings = static_cast<int>(last_edges.size() + 1) * 3;
    Ciphertext ct;
    for (RnsPoly* poly : {&ct.c0, &ct.c1}) {
        poly->k = level;
        poly->n = n;
        poly->data.assign(static_cast<std::size_t>(level) * n, 0);
        for (int x = 0; x < n; ++x) {
            // c1 shifts the walk so its pairings sit at other indices.
            const int walk = (poly == &ct.c1 ? x + 7 : x) % (2 * pairings);
            for (int i = 0; i < level; ++i) {
                const std::uint64_t p = primes[static_cast<std::size_t>(i)];
                std::uint64_t v = rng.uniformInt(p);
                if (walk < pairings) {
                    const auto edge = static_cast<std::size_t>(walk / 3);
                    if (i == level - 1) {
                        if (edge < last_edges.size()) v = last_edges[edge];
                    } else if (walk % 3 == 0) {
                        v = 0;
                    } else if (walk % 3 == 1) {
                        v = p - 1;
                    }
                }
                poly->component(i)[x] = v;
            }
        }
    }
    return ct;
}

TEST(SealLiteDifferentialTest, ModSwitchMatchesModuloReferenceWordForWord)
{
    // 31-bit chains are where the 32-bit drop's bounds are tightest:
    // the rescale's Shoup product takes c - δ + q_i < 2q_i, just below
    // 2^32 there, and δ0 lifts into q_i by one add as |δ0| < q_i.
    const SimdRestore restore;
    for (const RingCase& ring : ringCases()) {
        for (const int prime_bits : {30, 31}) {
            for (int prime_count = 2; prime_count <= 8; ++prime_count) {
                SCOPED_TRACE("n=" + std::to_string(ring.n) + " t=" +
                             std::to_string(ring.t) +
                             " bits=" + std::to_string(prime_bits) +
                             " k=" + std::to_string(prime_count));
                SealLiteParams params = ringParams(ring, prime_count);
                params.prime_bits = prime_bits;
                const SealLite s(params);
                Rng rng(static_cast<std::uint64_t>(prime_count) * 131 +
                        ring.t);
                // One crafted ciphertext per level, so every chain prime
                // meets the edge residues as the dropped q_l.
                std::vector<Ciphertext> inputs;
                for (int level = prime_count; level >= 2; --level) {
                    inputs.push_back(craftedCiphertext(s, level, rng));
                }
                for (bool simd : {true, false}) {
                    SCOPED_TRACE(simd ? "simd on" : "simd off");
                    setSimdEnabled(simd);
                    for (const Ciphertext& input : inputs) {
                        const int level = s.level(input);
                        SCOPED_TRACE("drop from level " +
                                     std::to_string(level));
                        Ciphertext want = s.clone(input);
                        referenceDrop(s, want.c0);
                        referenceDrop(s, want.c1);
                        Ciphertext got = s.clone(input);
                        s.modSwitchTo(got, level - 1);
                        ASSERT_EQ(got.c0.k, level - 1);
                        EXPECT_EQ(got.c0.data, want.c0.data);
                        EXPECT_EQ(got.c1.data, want.c1.data);
                    }
                    // The full chain walked down one drop at a time, from
                    // level k to 1, matches the reference at every level.
                    Ciphertext got = s.clone(inputs.front());
                    Ciphertext want = s.clone(inputs.front());
                    while (want.c0.k > 1) {
                        referenceDrop(s, want.c0);
                        referenceDrop(s, want.c1);
                        s.modSwitchTo(got, want.c0.k);
                        EXPECT_EQ(got.c0.data, want.c0.data) << want.c0.k;
                        EXPECT_EQ(got.c1.data, want.c1.data) << want.c0.k;
                    }
                }
            }
        }
    }
}

// -- differential: RNS add, subtract, negate and addPlain -------------------

/// A full-level ciphertext whose words at prime i cycle through 0, 1,
/// p - 1 and a uniform residue: coefficient j takes edge (j + i) % 4
/// when \p stride is 1, or (j / 4 + i) % 4 when it is 4, so the two
/// strides pair every edge with every edge within 16 coefficients.
Ciphertext
edgeCiphertext(const SealLite& s, int stride, Rng& rng)
{
    const int n = s.params().n;
    Ciphertext ct;
    for (RnsPoly* poly : {&ct.c0, &ct.c1}) {
        poly->k = s.levels();
        poly->n = n;
        poly->data.resize(static_cast<std::size_t>(poly->k) * n);
        for (int i = 0; i < poly->k; ++i) {
            const std::uint64_t p =
                s.primeChain()[static_cast<std::size_t>(i)];
            const std::uint64_t edges[] = {0, 1, p - 1, rng.uniformInt(p)};
            for (int j = 0; j < n; ++j) {
                poly->component(i)[j] = static_cast<std::uint32_t>(
                    edges[(j / stride + i + (poly == &ct.c1)) % 4]);
            }
        }
    }
    return ct;
}

/// \p op(x, y, p) on every residue pair of two ciphertexts.
template <typename Op>
Ciphertext
referenceWords(const SealLite& s, const Ciphertext& x, const Ciphertext& y,
               Op op)
{
    Ciphertext out = s.clone(x);
    for (const auto& [xp, yp, wp] : {std::tuple{&x.c0, &y.c0, &out.c0},
                                     std::tuple{&x.c1, &y.c1, &out.c1}}) {
        for (int i = 0; i < xp->k; ++i) {
            const std::uint64_t p =
                s.primeChain()[static_cast<std::size_t>(i)];
            for (int j = 0; j < xp->n; ++j) {
                wp->component(i)[j] = static_cast<std::uint32_t>(
                    op(xp->component(i)[j], yp->component(i)[j], p));
            }
        }
    }
    return out;
}

/// \p ct with m mod p_i added to every c0 word: what addPlain must
/// leave, and what a plaintext adds to a fresh encryption.
Ciphertext
referencePlusPlain(const SealLite& s, const Ciphertext& ct,
                   const Plaintext& plain)
{
    Ciphertext out = s.clone(ct);
    for (int i = 0; i < ct.c0.k; ++i) {
        const std::uint64_t p = s.primeChain()[static_cast<std::size_t>(i)];
        for (int j = 0; j < ct.c0.n; ++j) {
            out.c0.component(i)[j] = static_cast<std::uint32_t>(
                addMod(ct.c0.component(i)[j],
                       plain.coeffs[static_cast<std::size_t>(j)] % p, p));
        }
    }
    return out;
}

TEST(SealLiteDifferentialTest, RnsAddSubNegateMatchModularReferenceWordForWord)
{
    const SimdRestore restore;
    for (const RingCase& ring : ringCases()) {
        SCOPED_TRACE("n=" + std::to_string(ring.n) +
                     " t=" + std::to_string(ring.t));
        const SealLite s(ringParams(ring, 4));
        const std::vector<std::uint64_t>& primes = s.primeChain();
        const std::uint64_t p_min =
            *std::min_element(primes.begin(), primes.end());
        Rng rng(static_cast<std::uint64_t>(ring.n) * 17 + ring.t);
        const Ciphertext a = edgeCiphertext(s, 1, rng);
        const Ciphertext b = edgeCiphertext(s, 4, rng);
        // Words below t, as encode leaves them; words just past the
        // smallest chain prime, which must be reduced there although
        // they fit a 32-bit word; and words past every chain prime.
        Plaintext small;
        Plaintext reaching;
        Plaintext wide;
        for (int j = 0; j < ring.n; ++j) {
            const std::uint64_t below[] = {0, 1, ring.t - 1,
                                           rng.uniformInt(ring.t)};
            const std::uint64_t near[] = {p_min, 2 * p_min - 1, p_min - 1,
                                          0xffffffff};
            const std::uint64_t past[] = {~std::uint64_t{0}, p_min,
                                          p_min - 1, rng.next()};
            small.coeffs.push_back(below[j % 4]);
            reaching.coeffs.push_back(near[(j / 4) % 4]);
            wide.coeffs.push_back(past[j % 4]);
        }
        const Ciphertext sum = referenceWords(
            s, a, b, [](std::uint64_t u, std::uint64_t v, std::uint64_t p) {
                return addMod(u, v, p);
            });
        const Ciphertext diff = referenceWords(
            s, a, b, [](std::uint64_t u, std::uint64_t v, std::uint64_t p) {
                return subMod(u, v, p);
            });
        const Ciphertext neg = referenceWords(
            s, a, b, [](std::uint64_t u, std::uint64_t, std::uint64_t p) {
                return subMod(0, u, p);
            });
        const Ciphertext plus_small = referencePlusPlain(s, a, small);
        const Ciphertext plus_reaching = referencePlusPlain(s, a, reaching);
        const Ciphertext plus_wide = referencePlusPlain(s, a, wide);
        for (bool simd : {true, false}) {
            SCOPED_TRACE(simd ? "simd on" : "simd off");
            setSimdEnabled(simd);
            for (const auto& [name, got, want] :
                 {std::tuple{"add", s.add(a, b), &sum},
                  std::tuple{"sub", s.sub(a, b), &diff},
                  std::tuple{"negate", s.negate(a), &neg},
                  std::tuple{"addPlain small", s.addPlain(a, small),
                             &plus_small},
                  std::tuple{"addPlain reaching", s.addPlain(a, reaching),
                             &plus_reaching},
                  std::tuple{"addPlain wide", s.addPlain(a, wide),
                             &plus_wide}}) {
                EXPECT_EQ(got.c0.data, want->c0.data) << name;
                EXPECT_EQ(got.c1.data, want->c1.data) << name;
            }
        }
    }
}

TEST(SealLiteDifferentialTest, EncryptionIsLinearInThePlaintextWordForWord)
{
    // With the randomness fixed, encrypt(m) - encrypt(0) is (m mod p_i, 0)
    // in every word: this holds each fresh c0 word to its plaintext term
    // for words below t, words that fit 32 bits but reach past the
    // smallest chain prime, and words past every chain prime.
    const SimdRestore restore;
    for (const RingCase& ring : ringCases()) {
        SCOPED_TRACE("n=" + std::to_string(ring.n) +
                     " t=" + std::to_string(ring.t));
        SealLite s(ringParams(ring, 4));
        const std::vector<std::uint64_t>& primes = s.primeChain();
        const std::uint64_t p_min =
            *std::min_element(primes.begin(), primes.end());
        Rng rng(static_cast<std::uint64_t>(ring.n) * 19 + ring.t);
        Plaintext zero;
        zero.coeffs.assign(static_cast<std::size_t>(ring.n), 0);
        std::vector<Plaintext> plains(3);
        for (int j = 0; j < ring.n; ++j) {
            const std::uint64_t words[][4] = {
                {0, 1, ring.t - 1, rng.uniformInt(ring.t)},
                {p_min, 2 * p_min - 1, 0xffffffff, rng.uniformInt(p_min)},
                {~std::uint64_t{0}, p_min, p_min - 1, rng.next()}};
            for (std::size_t k = 0; k < plains.size(); ++k) {
                plains[k].coeffs.push_back(words[k][j % 4]);
            }
        }
        for (bool simd : {true, false}) {
            SCOPED_TRACE(simd ? "simd on" : "simd off");
            setSimdEnabled(simd);
            for (std::size_t k = 0; k < plains.size(); ++k) {
                SCOPED_TRACE("plaintext " + std::to_string(k));
                s.reseedRandomness(0x11ea + k);
                const Ciphertext base = s.encrypt(zero);
                s.reseedRandomness(0x11ea + k);
                const Ciphertext got = s.encrypt(plains[k]);
                ASSERT_EQ(got.c1.data, base.c1.data);
                EXPECT_EQ(got.c0.data,
                          referencePlusPlain(s, base, plains[k]).c0.data);
            }
        }
    }
}

// -- golden ciphertext words ---------------------------------------------------

/// FNV-1a over every word of both components. Each step is a bijection
/// of the running state, so changing any single word changes the hash.
std::uint64_t
wordHash(const Ciphertext& ct)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const RnsPoly* poly : {&ct.c0, &ct.c1}) {
        for (std::uint64_t word : poly->data) {
            hash ^= word;
            hash *= 1099511628211ULL;
        }
    }
    return hash;
}

struct GoldenCase
{
    int n;
    int decomp_bits;
    /// multiply(a, b), multiply(a, a), rotate(a, +1), rotate(a, -3),
    /// mulPlain(a, p), and multiply(a, b) after both drop to level k-2.
    std::array<std::uint64_t, 6> hashes;
};

TEST(SealLiteGoldenTest, CiphertextWordsMatchRecordedHashes)
{
    // Recorded from the formulation with two forward transforms per
    // tensor operand, `%`/mulMod mod-switch drops and 64-bit Shoup
    // key-switching keys. Those hashes pin every word the tensor
    // product, relinearization, rotation key switch, plaintext multiply
    // and the drop produce, which the decoded-output tests cannot see.
    const std::vector<GoldenCase> cases = {
        {1024, 15,
         {0xf332acdc2f032ddd, 0x060b5191b7498a07,
          0xa02d6a47b17f1907, 0x995f957f41953cdc,
          0x0c2d90c4a02378a7, 0x84330512efa3af15}},
        {1024, 10,
         {0x49fac61a502ff214, 0x8759090f3669e7fb,
          0xbac8f59a2f106ea4, 0x34c448d9ad88596a,
          0x9cdf31d8d7750ba3, 0xbf75f1e31114fe3b}},
        {1024, 30,
         {0x74efd2141800aa97, 0x1c5bf33e79f90b46,
          0xeb93535a665a86a9, 0x7e22d9067fcff7e0,
          0x4beaeaa177419cce, 0x27639f000deb6319}},
        {4096, 15,
         {0x5d9531e884204fb8, 0xafcf25fcdc6c7567,
          0xfc8ae48229f2eeb2, 0x2ba4d6bea4727067,
          0xf4895d023e13ba33, 0x7b19eab4ffe6fa79}},
        {4096, 10,
         {0xa220c3286968b102, 0x2ecc74ae00af245b,
          0x274c5e278e72cdba, 0xe4ea291e5274486e,
          0x96383bb00589877f, 0x923bb219d89da0b8}},
        {4096, 30,
         {0x79e906b1ea1c107e, 0x31ff26cf569b178e,
          0x4da7f592bf77bf07, 0xcc68d522d1db34fc,
          0xd12a791af33cf62e, 0xaab040d4b2857a87}},
    };
    const SimdRestore restore;
    for (const GoldenCase& golden : cases) {
        SCOPED_TRACE("n=" + std::to_string(golden.n) +
                     " decomp_bits=" + std::to_string(golden.decomp_bits));
        SealLiteParams params;
        params.n = golden.n;
        params.prime_bits = 30;
        params.prime_count = 6;
        params.decomp_bits = golden.decomp_bits;
        params.seed = 0x901d + static_cast<std::uint64_t>(golden.decomp_bits);
        SealLite s(params);
        s.makeGaloisKeys({1, -3});
        Rng rng(static_cast<std::uint64_t>(golden.n) + golden.decomp_bits);
        const auto row = [&] {
            std::vector<std::int64_t> values(
                static_cast<std::size_t>(s.slots()));
            for (std::int64_t& v : values) v = rng.uniformRange(0, 65536);
            return values;
        };
        const Ciphertext a = s.encrypt(s.encode(row()));
        const Ciphertext b = s.encrypt(s.encode(row()));
        const Plaintext plain = s.encode(row());
        for (bool simd : {true, false}) {
            SCOPED_TRACE(simd ? "simd on" : "simd off");
            setSimdEnabled(simd);
            Ciphertext a_low = s.clone(a);
            Ciphertext b_low = s.clone(b);
            s.modSwitchTo(a_low, s.levels() - 2);
            s.modSwitchTo(b_low, s.levels() - 2);
            const std::array<std::uint64_t, 6> got = {
                wordHash(s.multiply(a, b)),    wordHash(s.multiply(a, a)),
                wordHash(s.rotate(a, 1)),      wordHash(s.rotate(a, -3)),
                wordHash(s.mulPlain(a, plain)),
                wordHash(s.multiply(a_low, b_low))};
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i], golden.hashes[i])
                    << "op " << i << ": 0x" << std::hex << got[i];
            }
        }
    }
}

TEST(SealLiteGoldenTest, ThirtyOneBitChainIsSimdInvariant)
{
    // 31-bit primes are the widest validate() accepts and the case the
    // vector kernel's [0, 2p) legs exist for: 2p stays below 2^32 only
    // just. With decomp_bits = 31 a digit can exceed a smaller chain
    // prime, so the transform's input domain is exercised past p.
    for (const int decomp_bits : {31, 16}) {
        SCOPED_TRACE("decomp_bits=" + std::to_string(decomp_bits));
        SealLiteParams params;
        params.n = 1024;
        params.prime_bits = 31;
        params.prime_count = 4;
        params.decomp_bits = decomp_bits;
        params.seed = 0x31b + static_cast<std::uint64_t>(decomp_bits);
        ASSERT_EQ(params.validate(), "");
        SealLite s(params);
        s.makeGaloisKeys({1, -3});
        Rng rng(static_cast<std::uint64_t>(decomp_bits));
        std::vector<std::int64_t> va(static_cast<std::size_t>(s.slots()));
        std::vector<std::int64_t> vb(va.size());
        for (std::int64_t& v : va) v = rng.uniformRange(0, 65536);
        for (std::int64_t& v : vb) v = rng.uniformRange(0, 65536);
        const Ciphertext a = s.encrypt(s.encode(va));
        const Ciphertext b = s.encrypt(s.encode(vb));
        const SimdRestore restore;
        std::array<Ciphertext, 3> on;
        std::array<Ciphertext, 3> off;
        for (bool simd : {true, false}) {
            setSimdEnabled(simd);
            std::array<Ciphertext, 3>& out = simd ? on : off;
            out = {s.multiply(a, b), s.rotate(a, 1), s.rotate(a, -3)};
        }
        for (std::size_t op = 0; op < on.size(); ++op) {
            EXPECT_EQ(on[op].c0.data, off[op].c0.data) << "op " << op;
            EXPECT_EQ(on[op].c1.data, off[op].c1.data) << "op " << op;
        }
        const std::vector<std::int64_t> product = s.decrypt(on[0]);
        const std::vector<std::int64_t> rotated = s.decrypt(on[1]);
        for (std::size_t i = 0; i < va.size(); ++i) {
            ASSERT_EQ(product[i], tmod(va[i] * vb[i])) << i;
            ASSERT_EQ(rotated[i], va[(i + 1) % va.size()]) << i;
        }
    }
}

TEST(SealLiteGoldenTest, ThirtyOneBitChainWordsMatchRecordedHashes)
{
    // 31-bit primes leave the fused key switch room for only four raw
    // products per 64-bit sum, so at decomp_bits = 16 (two digits per
    // prime, eight terms per output prime) its early reduction runs,
    // and at 31 a digit can exceed a smaller chain prime. Recorded from
    // the key switch that reduced every product before summing.
    struct Case
    {
        int decomp_bits;
        /// multiply(a, b), rotate(a, +1), rotate(a, -3).
        std::array<std::uint64_t, 3> hashes;
    };
    const std::vector<Case> cases = {
        {16, {0x4ac03bb6dd188d2f, 0xab14b0e448c0d3c1, 0x1d5122effed4f109}},
        {31, {0x5ba5cdb36a4b5d5d, 0x5b855a798adfba99, 0x74c187917fb9d413}},
    };
    const SimdRestore restore;
    for (const Case& golden : cases) {
        SCOPED_TRACE("decomp_bits=" + std::to_string(golden.decomp_bits));
        SealLiteParams params;
        params.n = 1024;
        params.prime_bits = 31;
        params.prime_count = 4;
        params.decomp_bits = golden.decomp_bits;
        params.seed = 0x31b + static_cast<std::uint64_t>(golden.decomp_bits);
        SealLite s(params);
        s.makeGaloisKeys({1, -3});
        Rng rng(static_cast<std::uint64_t>(golden.decomp_bits));
        const auto row = [&] {
            std::vector<std::int64_t> values(
                static_cast<std::size_t>(s.slots()));
            for (std::int64_t& v : values) v = rng.uniformRange(0, 65536);
            return values;
        };
        const Ciphertext a = s.encrypt(s.encode(row()));
        const Ciphertext b = s.encrypt(s.encode(row()));
        for (bool simd : {true, false}) {
            SCOPED_TRACE(simd ? "simd on" : "simd off");
            setSimdEnabled(simd);
            const std::array<std::uint64_t, 3> got = {
                wordHash(s.multiply(a, b)), wordHash(s.rotate(a, 1)),
                wordHash(s.rotate(a, -3))};
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i], golden.hashes[i])
                    << "op " << i << ": 0x" << std::hex << got[i];
            }
        }
    }
}

TEST(SealLiteGoldenTest, FreshEncryptionWordsMatchRecordedHashes)
{
    // Recorded from the five-pass encryption (negate a·s, lift t·e, add,
    // lift m, add). Three plaintexts: an encoded row; words up to one
    // below the smallest chain prime, which lift into every prime as
    // they are; and words reaching past every chain prime (2^64 - 1,
    // 2^63 - 1, 2^40 + j, the smallest and the largest prime), which
    // must be reduced at each.
    struct Case
    {
        int n;
        /// encrypt(encoded), encrypt(below), encrypt(wide).
        std::array<std::uint64_t, 3> hashes;
    };
    const std::vector<Case> cases = {
        {1024, {0x619c2a7c6a880406, 0x6c3a6d88b2755385, 0x1f5098244172cab4}},
        {4096, {0x1fa84c8cf6c03dc0, 0x59b7298f2e205338, 0xadede77fd84cb237}},
    };
    const SimdRestore restore;
    for (const Case& golden : cases) {
        SCOPED_TRACE("n=" + std::to_string(golden.n));
        SealLiteParams params;
        params.n = golden.n;
        params.prime_bits = 30;
        params.prime_count = 6;
        params.seed = 0xf5e5 + static_cast<std::uint64_t>(golden.n);
        SealLite s(params);
        const std::vector<std::uint64_t>& primes = s.primeChain();
        const std::uint64_t p_min =
            *std::min_element(primes.begin(), primes.end());
        const std::uint64_t p_max =
            *std::max_element(primes.begin(), primes.end());
        Rng rng(static_cast<std::uint64_t>(golden.n));
        std::vector<std::int64_t> row(static_cast<std::size_t>(s.slots()));
        for (std::int64_t& v : row) v = rng.uniformRange(0, 65536);
        const Plaintext encoded = s.encode(row);
        Plaintext below;
        Plaintext wide;
        for (int j = 0; j < golden.n; ++j) {
            const auto x = static_cast<std::uint64_t>(j);
            below.coeffs.push_back(j % 3 == 0 ? p_min - 1
                                   : j % 3 == 1 ? rng.uniformInt(p_min)
                                                : x);
            const std::uint64_t choices[] = {~std::uint64_t{0},
                                             (std::uint64_t{1} << 63) - 1,
                                             (std::uint64_t{1} << 40) + x,
                                             p_min,
                                             p_max,
                                             x};
            wide.coeffs.push_back(choices[j % 6]);
        }
        for (bool simd : {true, false}) {
            SCOPED_TRACE(simd ? "simd on" : "simd off");
            setSimdEnabled(simd);
            std::array<std::uint64_t, 3> got{};
            const Plaintext* plains[] = {&encoded, &below, &wide};
            for (std::size_t i = 0; i < got.size(); ++i) {
                s.reseedRandomness(0xe17c + i);
                got[i] = wordHash(s.encrypt(*plains[i]));
            }
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i], golden.hashes[i])
                    << "plaintext " << i << ": 0x" << std::hex << got[i];
            }
        }
    }
}

} // namespace
} // namespace chehab::fhe
