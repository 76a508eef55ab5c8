/// \file
/// Deterministic noise-bits model behind the mod-switch pass.
///
/// The pass itself (driver.cc) only marks structurally plausible drop
/// points — after ciphertext multiplies with further work remaining —
/// because passes run before encryption parameters exist. Once per
/// execution, before evaluation, the runtime calls levelSchedule: it
/// replays the instruction stream through this integer model (an upper
/// bound on log2 of the phase magnitude |t·e + m|) and takes a marked
/// drop only when every live ciphertext AND every ciphertext the
/// remaining suffix will produce stays at least margin_bits below the
/// post-drop modulus. The evaluator then only reads the resulting
/// levels; it never runs the model. The model depends only on
/// (program, key plan, scheme parameters, fresh budget) — never on
/// input values or worker count — so the drop decisions, and therefore
/// the decoded outputs, are bit-for-bit reproducible at any concurrency.
/// Its building blocks stay public for the soundness property tests.
#pragma once

#include <vector>

#include "compiler/keyselect.h"
#include "compiler/schedule.h"
#include "fhe/sealite.h"

namespace chehab::compiler::modswitch {

/// ceil(log2(x)) for x >= 1.
int ceilLog2(std::uint64_t x);

/// Static scheme facts the recurrences need.
struct NoiseParams
{
    int n_bits = 0;           ///< ceil(log2 n): convolution growth.
    int t_bits = 0;           ///< ceil(log2 t): plaintext scale.
    int decomp_bits = 0;      ///< Key-switch digit width w.
    int digits_per_prime = 0;
    int fresh_bits = 0;       ///< Phase bits of a fresh encryption.
    /// level_bits[k-1] = bits of the chain product at level k.
    std::vector<int> level_bits;
    /// prime_bits[i] = bits of chain prime i.
    std::vector<int> prime_bits;
};

/// Extract NoiseParams from a scheme. \p fresh_noise_budget is the
/// scheme's measured fresh budget (SealLite::freshNoiseBudget()); the
/// fresh phase estimate is derived from it so the model's anchor matches
/// the implementation rather than an analytic constant.
NoiseParams noiseParamsFor(const fhe::SealLite& scheme,
                           int fresh_noise_budget);

/// Phase-magnitude estimate per register (bits; -1 = not a ciphertext),
/// plus the current chain level (shared by every live ciphertext — the
/// runtime drops all of them in lockstep).
struct NoiseState
{
    std::vector<int> bits;
    int level = 0;
};

/// State before the first instruction: every PackCipher destination in
/// the whole stream is seeded at fresh_bits (the runtime encrypts all
/// inputs client-side before evaluation, so a drop taken mid-stream
/// switches not-yet-consumed inputs too — including later composite
/// members').
NoiseState initialState(const FheProgram& program, const NoiseParams& np);

/// Noise floor (bits) a key-switch adds at \p level: digit magnitude
/// 2^w times t·(6σ) key error, convolved over n, summed over
/// digits_per_prime * level decomposition terms.
int ksFloorBits(const NoiseParams& np, int level);

/// Advance the estimate across one instruction. Pack* are no-ops (seeded
/// by initialState); Rotate accounts one key-switch per decomposed
/// component of \p plan.
void applyInstr(NoiseState& state, const FheInstr& instr,
                const NoiseParams& np, const RotationKeyPlan& plan);

/// Account one modulus drop: estimates shrink by the dropped prime's
/// bits but not below the rescale floor ~n·t/2, then grow by the
/// centered t-correction scalar (<= t/2) the switch folds in.
void applyDrop(NoiseState& state, const NoiseParams& np);

/// Ceiling (bits) an estimate must stay under at \p level for a
/// \p margin_bits safety margin against the decryption bound q/2.
int limitBits(const NoiseParams& np, int level, int margin_bits);

/// Would dropping one prime immediately before instruction \p next keep
/// every live ciphertext and the entire remaining suffix within
/// \p margin_bits of headroom (and the level at or above
/// \p min_level)? Pure: copies the state, never mutates inputs.
bool canDropBefore(const FheProgram& program, int next,
                   const NoiseState& state, const NoiseParams& np,
                   const RotationKeyPlan& plan, int margin_bits,
                   int min_level);

/// The chain level each instruction of \p program runs at: entry i is
/// the number of primes left after the drops taken before instruction
/// i. At each point of the program's mod-switch plan, visited in
/// stream order, drops are taken while canDropBefore passes under the
/// plan's margin and level floor; points out of order, repeated or
/// past the end are never visited. Every entry is the full chain when
/// the plan is empty. Non-increasing, so full chain minus the last
/// entry is the number of drops a run takes.
std::vector<int> levelSchedule(const FheProgram& program,
                               const RotationKeyPlan& plan,
                               const NoiseParams& np);

} // namespace chehab::compiler::modswitch
