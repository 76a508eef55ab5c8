/// \file
/// SealLite: a from-scratch RLWE homomorphic encryption backend standing
/// in for Microsoft SEAL (§4.4, §7.4).
///
/// It implements the exact integer BGV formulation of the
/// Brakerski-Gentry-Vaikuntanathan family in full-RNS form: an RNS
/// coefficient modulus q = Π qᵢ of NTT-friendly primes, ternary secrets,
/// symmetric RLWE encryption (c₀ = −a·s + t·e + m, c₁ = a), ciphertext
/// add/sub/negate, plaintext add/multiply, ciphertext multiply with
/// RNS-basis relinearization, Galois-automorphism slot rotations with key
/// switching, CRT batching over the plaintext modulus t, SEAL-style
/// invariant-noise-budget measurement, and BGV modulus switching
/// (modSwitchTo: drop trailing RNS primes mid-circuit once the noise
/// demand fits the smaller chain — the runtime support behind the
/// compiler's mod-switch pass).
///
/// Modulus switching (exactness contract): dropping the last prime q_l
/// rescales every component by q_l^{-1} using a correction δ with
/// δ ≡ c (mod q_l) and δ ≡ 0 (mod t), which multiplies the encoded
/// plaintext by q_l^{-1} mod t; the implementation immediately undoes
/// that by folding the centered scalar φ ≡ q_l (mod t) into the same
/// per-coefficient multiply, so ciphertexts never carry a correction
/// factor and decoded outputs are bit-identical with or without drops
/// (while noise bounds hold — the compiler pass gates drops on a
/// deterministic noise simulation with margin).
///
/// Substitution note (documented in DESIGN.md): the paper evaluates on
/// BFV; we implement its sibling exact scheme BGV because BGV's multiply
/// is computable entirely in 64-bit RNS arithmetic (BFV's t/q scaled
/// multiply needs multi-precision polynomial arithmetic on the hot path).
/// Both schemes expose the same operation set (SEAL ships both), have the
/// same batching/rotation semantics, and the same noise-consumption shape
/// the evaluation measures: multiplications consume budget multiplicatively,
/// additions additively, rotations a key-switch constant.
///
/// SECURITY: parameters default to toy sizes for test speed; nothing here
/// is hardened (no constant-time code, reduced n). Do not reuse for real
/// deployments.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fhe/ntt.h"
#include "fhe/poly_arena.h"
#include "support/rng.h"

namespace chehab::fhe {

/// Encryption parameters.
struct SealLiteParams
{
    int n = 1024;                     ///< Polynomial modulus degree.
    int prime_bits = 30;              ///< Bits per RNS prime.
    int prime_count = 6;              ///< q = product of this many primes.
    std::uint64_t plain_modulus = 65537; ///< t, prime, t ≡ 1 (mod 2n).
    std::uint64_t seed = 0x5ea11e;    ///< Key/encryption randomness seed.
    int error_stddev_x10 = 32;        ///< σ = 3.2 (x10 to stay integral).
    int decomp_bits = 15;             ///< Key-switch digit width 2^w within
                                      ///  each RNS residue (noise/size
                                      ///  trade-off, as in SEAL).

    /// \name Accepted ranges
    /// @{
    static constexpr int kMinDegree = 8;
    static constexpr int kMaxDegree = 32768;
    /// Longest chain: decryption recomposes coefficients in fixed-width
    /// stack limbs sized for this many primes of at most 31 bits.
    static constexpr int kMaxPrimeCount = 16;
    /// Pointwise NTT products use single-word Barrett multiplies, whose
    /// 64-bit product bound needs p^2 < 2^64, key-switching keys keep
    /// their NTT words in 32 bits, and the 8-lane NTT kernel keeps its
    /// legs in [0, 2p), below 2^32.
    static constexpr int kMaxPrimeBits = 31;
    static constexpr int kMaxErrorStddevX10 = 1000;
    /// @}

    /// Empty when a SealLite can be built from these parameters, else a
    /// one-line description of the first problem. Checks: n is a power
    /// of two in [kMinDegree, kMaxDegree]; prime_count is in
    /// [1, kMaxPrimeCount]; prime_bits is at most kMaxPrimeBits and at
    /// least log2(2n) + 12, which leaves enough primes ≡ 1 (mod 2n) for
    /// any chain length, all above 2^(prime_bits-1); decomp_bits is in
    /// [1, prime_bits]; error_stddev_x10 is in [0, kMaxErrorStddevX10];
    /// t is a prime ≡ 1 (mod 2n); and t times the largest sampled error
    /// stays below 2^(prime_bits-1), so scaled errors lift exactly into
    /// every chain prime and t is never itself a chain prime. The
    /// SealLite constructor throws std::invalid_argument on a non-empty
    /// result; the service checks requests with it before building a
    /// runtime.
    std::string validate() const;
};

/// Polynomial in RNS form: prime-major layout, `k * n` words. k is the
/// poly's *level* — the number of leading chain primes it still carries
/// (modulus switching truncates trailing components). Every residue is
/// fully reduced mod a chain prime below 2^31 (kMaxPrimeBits), so
/// 32-bit words hold it exactly and feed NttTables' std::uint32_t*
/// entries with no narrowing.
struct RnsPoly
{
    std::vector<std::uint32_t> data;
    int k = 0; ///< Number of primes (current level).
    int n = 0;

    std::uint32_t* component(int i) { return data.data() + static_cast<std::size_t>(i) * n; }
    const std::uint32_t* component(int i) const
    {
        return data.data() + static_cast<std::size_t>(i) * n;
    }
};

/// A polynomial cached in per-prime NTT (evaluation) form with a 32-bit
/// Shoup companion ⌊w·2^32/p⌋ per slot: multiplying a variable
/// coefficient-form operand against a cached form costs one forward +
/// NttTables::pointwiseShoup + one inverse (the secret and repeated
/// plaintext constants qualify). Always built at the full level; a
/// level-k consumer reads the first k components (RNS primes are
/// independent).
struct NttForm
{
    std::vector<std::uint32_t> values; ///< Prime-major, k * n words.
    std::vector<std::uint32_t> shoup;  ///< Shoup companions, same layout.
    int k = 0;
    int n = 0;

    const std::uint32_t* component(int i) const
    {
        return values.data() + static_cast<std::size_t>(i) * n;
    }
    const std::uint32_t* shoupComponent(int i) const
    {
        return shoup.data() + static_cast<std::size_t>(i) * n;
    }
};

/// Plaintext polynomial mod t (coefficient form). 64-bit words: decode
/// reduces any word mod t, so callers may hand it unreduced values.
struct Plaintext
{
    std::vector<std::uint64_t> coeffs;
};

/// Degree-1 RLWE ciphertext.
struct Ciphertext
{
    RnsPoly c0;
    RnsPoly c1;
};

/// Context + key material + evaluator in one object (SealLite is small
/// enough that SEAL's context/keygen/encryptor/evaluator split would be
/// ceremony; the method names mirror SEAL's).
class SealLite
{
  public:
    /// Throws std::invalid_argument when params.validate() rejects the
    /// parameters.
    explicit SealLite(SealLiteParams params = {});

    const SealLiteParams& params() const { return params_; }

    /// Usable SIMD slots (one batching row = n/2).
    int slots() const { return params_.n / 2; }

    /// log2 of the full coefficient modulus (total budget headroom).
    int coeffModulusBits() const { return coeffModulusBitsAt(levels()); }

    /// \name Modulus chain levels
    /// @{
    /// Number of primes in the full chain.
    int levels() const { return static_cast<int>(primes_.size()); }
    /// log2 of the coefficient modulus at \p level primes (1..levels()).
    int coeffModulusBitsAt(int level) const;
    /// The chain primes, in order (index < level participates).
    const std::vector<std::uint64_t>& primeChain() const { return primes_; }
    /// Current level of a ciphertext.
    int level(const Ciphertext& ct) const { return ct.c0.k; }
    /// Switch \p ct down to \p level primes (1 <= level <= current),
    /// dropping trailing chain primes one at a time. Exact: the decoded
    /// plaintext is unchanged (see the header notes); noise shrinks by
    /// roughly prime_bits and grows by ~log2(t) per drop, and the
    /// budget is thereafter measured against the smaller modulus.
    void modSwitchTo(Ciphertext& ct, int level) const;
    /// @}

    /// \name Batching
    /// Slot j of row 0 is the plaintext polynomial evaluated at
    /// ζ^(3^j mod 2n), ζ the primitive 2n-th root of unity mod t that
    /// findPrimitiveRoot returns (SEAL's BatchEncoder layout). Both
    /// directions are one negacyclic NTT mod t: the slot -> NTT index
    /// permutation is fixed at construction.
    /// @{
    /// Encode up to slots() integers (mod t) into a plaintext; row 1 and
    /// the slots past values.size() are zero.
    Plaintext encode(const std::vector<std::int64_t>& values) const;
    /// Decode all slots() row-0 slot values, each in [0, t).
    std::vector<std::int64_t> decode(const Plaintext& plain) const;
    /// @}

    /// \name Lane-sliced batching (slot coalescing)
    /// The service's batch planner packs several logical requests into
    /// one ciphertext row by giving each a contiguous region ("lane")
    /// of \p lane_stride slots. These helpers encode/decode at lane
    /// granularity; the stride must be positive and
    /// lanes.size() * lane_stride must fit in the row.
    /// @{
    /// Encode one region per lane: lane l's values land at slot offset
    /// l * lane_stride (each lane vector must be at most lane_stride
    /// wide; shorter vectors are zero-padded to the stride). Slots past
    /// the last lane stay zero.
    Plaintext encodeLanes(const std::vector<std::vector<std::int64_t>>& lanes,
                          int lane_stride) const;
    /// Decode the first \p width slots of each of \p num_lanes lanes,
    /// starting at lane index \p first_lane (the cross-kernel composite
    /// places a member's lanes at an arbitrary lane-aligned offset of
    /// the shared row, not necessarily at lane 0).
    std::vector<std::vector<std::int64_t>>
    decodeLanes(const Plaintext& plain, int lane_stride, int width,
                int num_lanes, int first_lane = 0) const;
    /// @}

    /// \name Encryption
    /// @{
    /// c1 = a uniform, c0 = t·e + m - a·s: the product a·s, then one
    /// 32-bit pass per prime adds t·e and m into it. \p plain's words
    /// may be any 64-bit value (each is taken mod t by decryption).
    Ciphertext encrypt(const Plaintext& plain);
    /// What decryption reads off a ciphertext: its plaintext and its
    /// remaining noise budget (see noiseBudgetBits).
    struct Readout
    {
        Plaintext plain;
        int budget = 0;
    };
    /// The one readout loop: the phase is computed once and each
    /// coefficient recomposed once, for both the plaintext and the
    /// budget. decryptPlain and noiseBudgetBits return its parts.
    Readout readout(const Ciphertext& ct) const;
    Plaintext decryptPlain(const Ciphertext& ct) const;
    std::vector<std::int64_t> decrypt(const Ciphertext& ct) const;
    /// The phase c0 + c1·s mod q at ct's level, which readout
    /// recomposes coefficient by coefficient (exposed for noise
    /// analysis and the differential tests). Arena-backed: hand it back
    /// with recycle().
    RnsPoly decryptionPhase(const Ciphertext& ct) const;
    /// @}

    /// \name Homomorphic evaluation
    /// Binary ciphertext operations require both operands at the same
    /// level (the runtime's drop points switch every live ciphertext in
    /// lockstep, so this holds by construction). add, sub and negate
    /// are one branch-free 32-bit loop per component and prime.
    /// @{
    Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext negate(const Ciphertext& a) const;
    Ciphertext addPlain(const Ciphertext& a, const Plaintext& plain) const;
    Ciphertext mulPlain(const Ciphertext& a, const Plaintext& plain) const;
    /// Ciphertext-ciphertext multiply with relinearization. The tensor
    /// product forward-transforms each of a.c0, a.c1, b.c0, b.c1 once
    /// per prime, forms e0 = A0·B0, e1 = A0·B1 + A1·B0 and e2 = A1·B1
    /// pointwise in one pass (NttTables::tensor), and inverse-transforms
    /// each once: 4 + 3 NTTs per prime.
    Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const;
    /// Cyclic left rotation of the batching row by \p step slots
    /// (negative = right). Requires the matching Galois key.
    Ciphertext rotate(const Ciphertext& a, int step) const;
    /// @}

    /// \name Destructive (in-place) evaluation forms
    /// Bit-identical results to the copying forms above, mutating \p a
    /// instead of copying both component polys. The runtime's in-place
    /// evaluator consumes a register's last use through these; the
    /// copying forms themselves are implemented as clone() + in-place,
    /// so every evaluator allocation flows through the arena either
    /// way.
    /// @{
    void addInPlace(Ciphertext& a, const Ciphertext& b) const;
    void subInPlace(Ciphertext& a, const Ciphertext& b) const;
    void negateInPlace(Ciphertext& a) const;
    void addPlainInPlace(Ciphertext& a, const Plaintext& plain) const;
    void mulPlainInPlace(Ciphertext& a, const Plaintext& plain) const;
    /// Arena-backed deep copy of a ciphertext.
    Ciphertext clone(const Ciphertext& a) const;
    /// Return a dead ciphertext's / poly's buffers to the arena for
    /// reuse by later ops (steady-state evaluation reaches zero fresh
    /// allocations once every op's dead values are recycled).
    void recycle(Ciphertext&& ct) const;
    void recycle(RnsPoly&& poly) const;
    /// @}

    /// \name Arena observability and control
    /// @{
    PolyArena::Stats arenaStats() const { return arena_.stats(); }
    /// Disabled = every acquire is a fresh heap allocation (the
    /// arena-on-vs-off differential tests run both ways).
    void setArenaEnabled(bool enabled) { arena_.setEnabled(enabled); }
    /// @}

    /// Re-seed the encryption/error randomness stream. Key material
    /// (secret, relinearization and Galois keys) is unaffected: the
    /// secret and relin keys are fixed at construction, and Galois keys
    /// derive their randomness from (params seed, step) alone. The
    /// service's runtime pool reseeds per request so a pooled, reused
    /// scheme produces bit-identical noise accounting regardless of
    /// which requests ran on it before.
    void reseedRandomness(std::uint64_t seed) { rng_.reseed(seed); }

    /// \name Rotation (Galois) keys — App. B's χ set feeds this.
    /// @{
    /// Generate keys for \p steps (already-present steps are skipped).
    /// Each key's randomness is derived deterministically from the
    /// params seed and the step, so the key for a given step is
    /// bit-identical no matter when or in what order it is generated —
    /// pooled runtimes can accumulate keys across requests without
    /// becoming history-dependent.
    void makeGaloisKeys(const std::vector<int>& steps);
    bool hasGaloisKey(int step) const;
    int numGaloisKeys() const { return static_cast<int>(galois_keys_.size()); }
    /// Apply x -> x^galois_element (odd, below 2n) to every RNS
    /// component: coefficient j moves to (j·g) mod 2n, negated when that
    /// index is n or above (x^n = -1). Exposed for the differential
    /// tests; arena-backed.
    RnsPoly applyAutomorphism(const RnsPoly& a,
                              std::uint64_t galois_element) const;
    /// @}

    /// \name Noise measurement (App. H.1)
    /// @{
    /// Remaining invariant noise budget in bits, measured against the
    /// ciphertext's *current* coefficient modulus (<= 0 means
    /// decryption is no longer guaranteed). readout(ct).budget.
    int noiseBudgetBits(const Ciphertext& ct) const;
    /// Budget of a fresh encryption under these parameters.
    int freshNoiseBudget();
    /// @}

  private:
    static_assert((std::uint64_t{1} << SealLiteParams::kMaxPrimeBits) - 1 <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "every chain prime, hence every residue, fits 32 bits");

    struct KeySwitchKey
    {
        // One (b, a) pair per (RNS prime, base-2^w digit) combination:
        // entry i*digits+d encrypts T_i * B^d * target. Each entry is
        // the full-level NTT form, prime-major (k * n words): the
        // transformed key poly's own 32-bit data, with no Shoup
        // companions. Key switching multiplies them against freshly
        // transformed 32-bit digits, both operands below p, into lazy
        // 64-bit sums (NttTables::accumulateProducts: one pass per
        // digit feeds both entries, in 8 lanes where the vector kernel
        // applies). A Galois key at n = 4096 with six primes and two
        // digits is 2.4 MB.
        std::vector<std::vector<std::uint32_t>> b;
        std::vector<std::vector<std::uint32_t>> a;
    };

    /// Little-endian fixed-width integer wide enough for
    /// kMaxPrimeCount * (the largest prime, < 2^31) * q.
    using Limbs = std::array<std::uint64_t, 8>;

    /// Per-level CRT recomposition tables (level = index + 1 primes).
    /// Every multiplier below is a constant, so each carries a Shoup
    /// companion.
    struct LevelTables
    {
        int limbs = 0;  ///< Limbs in use: Σ y_i·(q/q_i) < k·q fits.
        int q_bits = 0; ///< Bit length of q.
        Limbs q{};
        Limbs half_q{};                       ///< floor(q / 2).
        std::vector<Limbs> q_hat;             ///< q / q_i.
        std::vector<std::uint32_t> q_hat_inv; ///< (q/q_i)^-1 mod q_i.
        std::vector<std::uint32_t> q_hat_inv_shoup;
        std::vector<std::uint32_t> q_hat_mod_t; ///< (q/q_i) mod t.
        std::vector<std::uint32_t> q_hat_mod_t_shoup;
        /// [α] = α·q mod t for α < k: the correction for α
        /// subtractions of q.
        std::vector<std::uint64_t> alpha_q_mod_t;
        std::uint64_t q_mod_t = 0;
    };

    /// One coefficient recomposed exactly from its residues.
    struct Recomposed
    {
        Limbs value{};           ///< In [0, q).
        std::uint64_t mod_t = 0; ///< value mod t.
        /// value > floor(q/2): the centered lift is value - q.
        bool upper = false;
    };

    RnsPoly zeroPoly(int k = 0) const; ///< k = 0 means full level.
    RnsPoly uniformPoly();
    /// Small polynomial (the ternary secret) lifted to RNS.
    RnsPoly liftSmall(const std::vector<int>& coeffs) const;
    std::vector<int> sampleTernary();
    std::vector<int> sampleError();

    /// \name RNS add, subtract and negate
    /// Branch-free 32-bit loops: csub32(x + y, p), csub32(x - y + p, p)
    /// and csub32(p - x, p), fully reduced.
    /// @{
    void addInPlace(RnsPoly& a, const RnsPoly& b) const;
    void subInPlace(RnsPoly& a, const RnsPoly& b) const;
    void negateInPlace(RnsPoly& a) const;
    /// @}
    /// The one pass that adds scaled errors and plaintext words to a
    /// poly at its level: poly = t·e + m - poly with \p subtract (the
    /// c0 of encrypt and the b of a key entry, over the product a·s),
    /// else poly + t·e + m (addPlain, and plainNttForm's lift onto a
    /// zero poly). One 32-bit pass per prime, every word fully reduced.
    /// An empty \p error or a null \p plain is a zero term. Plaintext
    /// words are reduced mod p_i only when one of them reaches the
    /// level's smallest prime; an encoded plaintext's words are below t.
    void assemble(RnsPoly& poly, bool subtract, const std::vector<int>& error,
                  const Plaintext* plain) const;
    /// Arena-backed deep copy of one poly.
    RnsPoly clonePoly(const RnsPoly& a) const;
    /// Negacyclic product against a cached NTT form into a fresh poly
    /// at a's level: clonePoly + mulPolyNttInPlace.
    RnsPoly mulPolyNtt(const RnsPoly& a, const NttForm& b) const;
    /// The product written back into \p a's own buffer: one forward,
    /// NttTables::pointwiseShoup (8 lanes where the kernel applies), one
    /// inverse per prime (the form is full-level).
    void mulPolyNttInPlace(RnsPoly& a, const NttForm& b) const;
    /// Transform \p a (full level) into cached NTT form.
    NttForm toNttForm(const RnsPoly& a) const;

    /// Cached (lifted + NTT-transformed) form of \p plain for repeated
    /// ciphertext-plaintext multiplies across packed executions.
    std::shared_ptr<const NttForm> plainNttForm(const Plaintext& plain) const;

    /// Drop the last RNS prime of \p poly (the rescale + folded
    /// t-correction described in the header notes), in 32-bit words
    /// and two passes (NttTables::dropCorrection, then
    /// NttTables::dropRescale per surviving prime; 8 lanes where the
    /// kernel applies). δ = δ0 + q_l·u is kept as its two centered
    /// parts, δ0 (c mod q_l) and u (-δ0·q_l^{-1} mod t), in two n-word
    /// arena buffers; each surviving prime forms δ mod q_i from them
    /// with one Shoup product by q_l mod q_i and rescales with another
    /// by the folded factor.
    void modSwitchPolyDown(RnsPoly& poly) const;

    /// Key-switch digit count per RNS prime.
    int digitsPerPrime() const;

    /// Build a key-switching key for target polynomial \p target (s², or
    /// an automorphism image of s).
    KeySwitchKey makeKeySwitchKey(const RnsPoly& target);
    /// Key-switch \p poly (a component that currently multiplies the key
    /// target) onto (delta_c0, delta_c1). Operates at poly's level: only
    /// the first poly.k primes' digits and key components participate
    /// (valid because the full-level CRT basis T_i reduces to the
    /// level-k basis mod the surviving primes). Prime-major: for each
    /// output prime, every nonzero digit is extracted from the 32-bit
    /// residues straight into the transform buffer, forward-transformed,
    /// and its raw products with both key components added to two lazy
    /// 64-bit sums in one pass (NttTables::accumulateProducts, which
    /// reduces early past lazyTerms()). Each prime's sums are reduced
    /// once, take one inverse per output component and add into the
    /// deltas' words. Its digit and sum buffers come from arena_.
    void keySwitch(const RnsPoly& poly, const KeySwitchKey& key,
                   RnsPoly& delta_c0, RnsPoly& delta_c1) const;

    /// Galois element for a left rotation by \p step.
    std::uint64_t galoisElement(int step) const;

    /// CRT-recompose coefficient \p index of \p poly at poly's level:
    /// y_i = v_i·(q/q_i)^-1 mod q_i, then Σ y_i·(q/q_i) in stack limbs,
    /// then at most k-1 conditional subtractions of q. Exact — no
    /// floating-point estimate, no heap.
    Recomposed recomposeCoeff(const RnsPoly& poly, int index) const;

    SealLiteParams params_;
    std::vector<std::uint64_t> primes_;
    /// Shared process-wide tables (see acquireNttTables).
    std::vector<std::shared_ptr<const NttTables>> ntt_;
    std::vector<LevelTables> level_tables_;    ///< [k-1] = level-k tables.
    /// Modulus-switch precomputation for dropping prime index l
    /// (level l+1 -> l): q_l^{-1} mod t, and per surviving prime i
    /// q_l mod q_i and the folded factor (q_l^{-1} mod q_i) * (φ mod q_i)
    /// with φ the centered representative of q_l mod t; each with its
    /// Shoup companion.
    std::vector<std::uint32_t> inv_prime_mod_t_;
    std::vector<std::uint32_t> inv_prime_mod_t_shoup_;
    std::vector<std::vector<std::uint32_t>> switch_prime_mod_;
    std::vector<std::vector<std::uint32_t>> switch_prime_mod_shoup_;
    std::vector<std::vector<std::uint32_t>> switch_factor_;
    std::vector<std::vector<std::uint32_t>> switch_factor_shoup_;
    /// Negacyclic NTT mod t behind encode/decode, and the NTT index of
    /// each row-0 slot (evaluation point ζ^(3^j mod 2n)).
    std::shared_ptr<const NttTables> plain_ntt_;
    std::vector<int> slot_index_;

    std::vector<int> secret_;                  ///< Ternary secret key.
    RnsPoly secret_rns_;
    NttForm secret_ntt_;                       ///< Cached NTT form of s.
    KeySwitchKey relin_key_;
    std::unordered_map<int, KeySwitchKey> galois_keys_;
    std::unordered_map<int, std::uint64_t> galois_elements_;
    Rng rng_;
    int fresh_budget_ = -1;

    /// Cache of NTT forms for repeatedly-used plaintext constants
    /// (packed masks are re-multiplied on every run of a cached
    /// program). Keyed by coefficient hash with full-coefficient
    /// verification on hit; cleared wholesale at capacity, which is a
    /// fixed byte budget over the k·n·8 + n·8 bytes of one entry (4-byte
    /// values and Shoup companions, 8-byte plaintext coefficients).
    struct PlainCacheEntry
    {
        std::vector<std::uint64_t> coeffs;
        NttForm form;
    };
    std::size_t plain_cache_capacity_ = 1;
    mutable std::mutex plain_cache_mutex_;
    mutable std::unordered_map<std::uint64_t,
                               std::shared_ptr<const PlainCacheEntry>>
        plain_ntt_cache_;

    /// Buffer pool behind every RnsPoly, NTT-scratch and key-switch
    /// buffer this instance makes (zeroPoly and friends all draw from
    /// it), all in 32-bit words. Mutable: const evaluator methods
    /// acquire and release scratch.
    mutable PolyArena arena_;
};

} // namespace chehab::fhe
