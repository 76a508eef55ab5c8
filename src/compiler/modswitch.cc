#include "compiler/modswitch.h"

#include <algorithm>

#include "support/error.h"

namespace chehab::compiler::modswitch {

int
ceilLog2(std::uint64_t x)
{
    int bits = 0;
    std::uint64_t v = 1;
    while (v < x) {
        v <<= 1;
        ++bits;
    }
    return bits;
}

NoiseParams
noiseParamsFor(const fhe::SealLite& scheme, int fresh_noise_budget)
{
    const fhe::SealLiteParams& params = scheme.params();
    NoiseParams np;
    np.n_bits = ceilLog2(static_cast<std::uint64_t>(params.n));
    np.t_bits = ceilLog2(params.plain_modulus);
    np.decomp_bits = params.decomp_bits;
    np.digits_per_prime = (params.prime_bits + params.decomp_bits - 1) /
                          params.decomp_bits;
    for (int lvl = 1; lvl <= scheme.levels(); ++lvl) {
        np.level_bits.push_back(scheme.coeffModulusBitsAt(lvl));
    }
    for (std::uint64_t p : scheme.primeChain()) {
        np.prime_bits.push_back(ceilLog2(p));
    }
    // budget = (qbits - 1) - phase_bits, so invert it (+1 slack for the
    // measurement's own rounding) to anchor the fresh estimate on what
    // the scheme actually produced.
    np.fresh_bits = np.level_bits.back() - 1 - fresh_noise_budget + 1;
    return np;
}

NoiseState
initialState(const FheProgram& program, const NoiseParams& np)
{
    NoiseState state;
    state.bits.assign(static_cast<std::size_t>(program.num_regs), -1);
    state.level = static_cast<int>(np.level_bits.size());
    for (const FheInstr& instr : program.instrs) {
        if (instr.op == FheOpcode::PackCipher && instr.dst >= 0 &&
            instr.dst < program.num_regs) {
            state.bits[static_cast<std::size_t>(instr.dst)] = np.fresh_bits;
        }
    }
    return state;
}

int
ksFloorBits(const NoiseParams& np, int level)
{
    // Key-switch delta: sum over digits_per_prime*level terms of
    // digit (< 2^w) * key error (t * 6σ, σ=3.2 => ~2^5 per coefficient)
    // convolved negacyclically over n coefficients.
    const int sigma_bits = 5;
    const int terms = std::max(1, np.digits_per_prime * level);
    return np.decomp_bits + np.t_bits + sigma_bits + np.n_bits +
           ceilLog2(static_cast<std::uint64_t>(terms)) + 1;
}

namespace {

int
rotateComponents(const RotationKeyPlan& plan, int step)
{
    auto it = plan.decomposition.find(step);
    if (it == plan.decomposition.end()) return 1;
    return std::max<std::size_t>(1, it->second.size());
}

} // namespace

void
applyInstr(NoiseState& state, const FheInstr& instr, const NoiseParams& np,
           const RotationKeyPlan& plan)
{
    auto estimate = [&state](int reg) -> int {
        if (reg < 0 || reg >= static_cast<int>(state.bits.size())) return -1;
        return state.bits[static_cast<std::size_t>(reg)];
    };
    auto set = [&state](int reg, int value) {
        if (reg >= 0 && reg < static_cast<int>(state.bits.size())) {
            state.bits[static_cast<std::size_t>(reg)] = value;
        }
    };

    switch (instr.op) {
      case FheOpcode::PackCipher:
      case FheOpcode::PackPlain:
        // Seeded by initialState; re-seeding here would undo a drop's
        // effect on not-yet-consumed inputs.
        break;
      case FheOpcode::Add:
      case FheOpcode::Sub: {
        const int a = estimate(instr.a);
        const int b = estimate(instr.b);
        if (a < 0 || b < 0) break;
        set(instr.dst, std::max(a, b) + 1);
        break;
      }
      case FheOpcode::Negate: {
        const int a = estimate(instr.a);
        if (a < 0) break;
        set(instr.dst, a);
        break;
      }
      case FheOpcode::AddPlain: {
        const int a = estimate(instr.a);
        if (a < 0) break;
        set(instr.dst, std::max(a, np.t_bits) + 1);
        break;
      }
      case FheOpcode::MulPlain: {
        const int a = estimate(instr.a);
        if (a < 0) break;
        // Negacyclic convolution with a plaintext polynomial whose
        // coefficients are centered below t/2.
        set(instr.dst, a + np.t_bits + np.n_bits);
        break;
      }
      case FheOpcode::Mul: {
        const int a = estimate(instr.a);
        const int b = estimate(instr.b);
        if (a < 0 || b < 0) break;
        // Phase product convolved over n (+2 cross-term slack), then
        // the relinearization key-switch floor.
        int est = a + b + np.n_bits + 2;
        est = std::max(est, ksFloorBits(np, state.level)) + 1;
        set(instr.dst, est);
        break;
      }
      case FheOpcode::Rotate: {
        int est = estimate(instr.a);
        if (est < 0) break;
        // The automorphism permutes coefficients (no growth); each
        // decomposed component pays one key-switch.
        const int components = rotateComponents(plan, instr.step);
        for (int c = 0; c < components; ++c) {
            est = std::max(est, ksFloorBits(np, state.level)) + 1;
        }
        set(instr.dst, est);
        break;
      }
    }
}

void
applyDrop(NoiseState& state, const NoiseParams& np)
{
    CHEHAB_ASSERT(state.level >= 2, "cannot drop below one prime");
    const int dropped =
        np.prime_bits[static_cast<std::size_t>(state.level) - 1];
    // Rescale divides the phase by q_l but adds the rounding term
    // δ0 + δ1·s, bounded by ~(n+1)·t/2 after the division; the folded
    // φ-scalar then multiplies by at most t/2.
    const int switch_floor = np.t_bits - 1 + np.n_bits + 1;
    const int corr_bits = np.t_bits - 1;
    for (int& bits : state.bits) {
        if (bits < 0) continue;
        bits = std::max(bits - dropped, switch_floor) + corr_bits + 1;
    }
    --state.level;
}

int
limitBits(const NoiseParams& np, int level, int margin_bits)
{
    return np.level_bits[static_cast<std::size_t>(level) - 1] - 1 -
           margin_bits;
}

bool
canDropBefore(const FheProgram& program, int next, const NoiseState& state,
              const NoiseParams& np, const RotationKeyPlan& plan,
              int margin_bits, int min_level)
{
    if (state.level <= min_level || state.level <= 1) return false;

    NoiseState trial = state;
    applyDrop(trial, np);
    const int limit = limitBits(np, trial.level, margin_bits);
    for (int bits : trial.bits) {
        if (bits > limit) return false;
    }
    // Simulate the whole remaining suffix at the lower level (assuming
    // no further drops — they only shrink estimates, so this is
    // conservative): every ciphertext it produces must also fit.
    for (std::size_t i = static_cast<std::size_t>(next);
         i < program.instrs.size(); ++i) {
        const FheInstr& instr = program.instrs[i];
        applyInstr(trial, instr, np, plan);
        if (instr.dst >= 0 &&
            instr.dst < static_cast<int>(trial.bits.size()) &&
            trial.bits[static_cast<std::size_t>(instr.dst)] > limit) {
            return false;
        }
    }
    return true;
}

std::vector<int>
levelSchedule(const FheProgram& program, const RotationKeyPlan& plan,
              const NoiseParams& np)
{
    const ModSwitchPlan& ms = program.mod_switch;
    std::vector<int> levels(program.instrs.size(),
                            static_cast<int>(np.level_bits.size()));
    if (ms.empty()) return levels;
    NoiseState noise = initialState(program, np);
    std::size_t next_point = 0;
    for (std::size_t idx = 0; idx < program.instrs.size(); ++idx) {
        while (next_point < ms.points.size() &&
               ms.points[next_point] < static_cast<int>(idx)) {
            ++next_point;
        }
        if (next_point < ms.points.size() &&
            ms.points[next_point] == static_cast<int>(idx)) {
            // Multi-prime drops are possible when the noise demand
            // collapsed far below the chain (each iteration re-runs the
            // full suffix simulation one level lower).
            while (canDropBefore(program, static_cast<int>(idx), noise, np,
                                 plan, ms.margin_bits, ms.min_level)) {
                applyDrop(noise, np);
            }
            ++next_point;
        }
        levels[idx] = noise.level;
        applyInstr(noise, program.instrs[idx], np, plan);
    }
    return levels;
}

} // namespace chehab::compiler::modswitch
