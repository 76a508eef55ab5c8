/// \file
/// Mid-circuit modulus switching, bottom to top: SealLite::modSwitchTo
/// exactness (decoded plaintext unchanged per drop, ops still correct
/// at lower levels), the deterministic noise-bits model's gating
/// (drops allowed with headroom, refused when the margin or min-level
/// would be violated), the mod-switch pass's drop-point placement and
/// fingerprint coverage, and on-vs-off decode-level identity through
/// the runtime, and the model's soundness: along the drop schedule it
/// bounds every register's measured phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "benchsuite/kernels.h"
#include "compiler/driver.h"
#include "compiler/modswitch.h"
#include "compiler/runtime.h"
#include "dataset/motif_gen.h"
#include "ir/parser.h"
#include "support/rng.h"
#include "trs/ruleset.h"

namespace chehab::compiler {
namespace {

fhe::SealLiteParams
smallParams()
{
    fhe::SealLiteParams params;
    params.n = 256;
    params.prime_count = 4;
    params.seed = 17;
    return params;
}

// -- SealLite::modSwitchTo ---------------------------------------------

TEST(ModSwitchSchemeTest, DropIsExactAtEveryLevel)
{
    fhe::SealLite scheme(smallParams());
    Rng rng(21);
    std::vector<std::int64_t> values(
        static_cast<std::size_t>(scheme.slots()));
    for (auto& v : values) {
        v = static_cast<std::int64_t>(rng.uniformInt(65537));
    }
    fhe::Ciphertext ct = scheme.encrypt(scheme.encode(values));
    ASSERT_EQ(scheme.level(ct), scheme.levels());
    // Stop at two primes: each drop leaves a noise floor of roughly
    // n·t²/2 (the centered t-correction times the plaintext scale),
    // which a single ~30-bit prime cannot carry with t = 65537 — the
    // reason the runtime gate floors the chain at min_level 2.
    for (int level = scheme.levels() - 1; level >= 2; --level) {
        scheme.modSwitchTo(ct, level);
        EXPECT_EQ(scheme.level(ct), level);
        EXPECT_EQ(scheme.decrypt(ct), values) << "level " << level;
        EXPECT_GT(scheme.noiseBudgetBits(ct), 0) << "level " << level;
    }
}

TEST(ModSwitchSchemeTest, OpsAfterDropMatchPlainSemantics)
{
    fhe::SealLite scheme(smallParams());
    const std::int64_t t = 65537;
    std::vector<std::int64_t> xs(static_cast<std::size_t>(scheme.slots()));
    std::vector<std::int64_t> ys(xs.size());
    Rng rng(22);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xs[i] = static_cast<std::int64_t>(rng.uniformInt(1000));
        ys[i] = static_cast<std::int64_t>(rng.uniformInt(1000));
    }
    fhe::Ciphertext a = scheme.encrypt(scheme.encode(xs));
    fhe::Ciphertext b = scheme.encrypt(scheme.encode(ys));
    // Drop both operands one level, then keep computing on them.
    scheme.modSwitchTo(a, scheme.levels() - 1);
    scheme.modSwitchTo(b, scheme.levels() - 1);
    const std::vector<std::int64_t> sum = scheme.decrypt(scheme.add(a, b));
    const std::vector<std::int64_t> product =
        scheme.decrypt(scheme.multiply(a, b));
    const std::vector<std::int64_t> rotated =
        [&] {
            scheme.makeGaloisKeys({1});
            return scheme.decrypt(scheme.rotate(a, 1));
        }();
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(sum[i], (xs[i] + ys[i]) % t);
        EXPECT_EQ(product[i], (xs[i] * ys[i]) % t);
        EXPECT_EQ(rotated[i], xs[(i + 1) % xs.size()]);
    }
}

// -- the noise model's gate --------------------------------------------

struct ModelFixture
{
    fhe::SealLite scheme{smallParams()};
    FheProgram program;
    RotationKeyPlan plan;
    modswitch::NoiseParams np;

    explicit ModelFixture(const std::string& text)
    {
        program = schedule(ir::parse(text));
        np = modswitch::noiseParamsFor(scheme, scheme.freshNoiseBudget());
    }

    /// Model state immediately before instruction \p next.
    modswitch::NoiseState
    stateAt(int next) const
    {
        modswitch::NoiseState state =
            modswitch::initialState(program, np);
        for (int i = 0; i < next; ++i) {
            modswitch::applyInstr(
                state, program.instrs[static_cast<std::size_t>(i)], np,
                plan);
        }
        return state;
    }

    /// Index one past the first ct-ct multiply (the spot the pass
    /// marks).
    int
    afterFirstMul() const
    {
        for (std::size_t i = 0; i < program.instrs.size(); ++i) {
            if (program.instrs[i].op == FheOpcode::Mul) {
                return static_cast<int>(i) + 1;
            }
        }
        return 0;
    }
};

TEST(ModSwitchModelTest, AllowsDropWithHeadroomRefusesWithoutIt)
{
    ModelFixture fx("(+ (* a b) c)");
    const int next = fx.afterFirstMul();
    ASSERT_GT(next, 0);
    const modswitch::NoiseState state = fx.stateAt(next);
    EXPECT_EQ(state.level, fx.scheme.levels());
    // A shallow circuit's one product at the full 4-prime chain leaves
    // primes of slack: a drop with the default margin must pass.
    EXPECT_TRUE(modswitch::canDropBefore(fx.program, next, state, fx.np,
                                         fx.plan, /*margin_bits=*/12,
                                         /*min_level=*/1));
    // An absurd margin consumes the whole post-drop modulus: refuse.
    EXPECT_FALSE(modswitch::canDropBefore(
        fx.program, next, state, fx.np, fx.plan,
        /*margin_bits=*/fx.np.level_bits.back(), /*min_level=*/1));
}

TEST(ModSwitchModelTest, MinLevelFloorsTheChain)
{
    // No remaining suffix: gate decisions at end-of-stream isolate the
    // level floor from suffix noise demand.
    ModelFixture fx("(+ a b)");
    const int end = static_cast<int>(fx.program.instrs.size());
    modswitch::NoiseState state = fx.stateAt(end);
    ASSERT_TRUE(modswitch::canDropBefore(fx.program, end, state, fx.np,
                                         fx.plan, /*margin_bits=*/12,
                                         /*min_level=*/3));
    modswitch::applyDrop(state, fx.np);
    EXPECT_EQ(state.level, fx.scheme.levels() - 1);
    // At the floor the gate refuses regardless of noise headroom ...
    EXPECT_FALSE(modswitch::canDropBefore(fx.program, end, state, fx.np,
                                          fx.plan, 12, /*min_level=*/3));
    // ... and the same state with a lower floor is allowed again.
    EXPECT_TRUE(modswitch::canDropBefore(fx.program, end, state, fx.np,
                                         fx.plan, 12, /*min_level=*/2));
}

TEST(ModSwitchModelTest, RefusesWhenRemainingSuffixIsTooDeep)
{
    // Chain a tower of multiplies: after the first product there is far
    // more noise demand left than one dropped prime leaves room for,
    // so the gate must keep the chain tall early on.
    ModelFixture fx("(* (* (* (* a b) c) d) e)");
    modswitch::NoiseState state =
        modswitch::initialState(fx.program, fx.np);
    int allowed_at_start = 0;
    while (modswitch::canDropBefore(fx.program, 0, state, fx.np, fx.plan,
                                    12, 1)) {
        modswitch::applyDrop(state, fx.np);
        ++allowed_at_start;
    }
    // The simulation covers the entire suffix, so it can never promise
    // more drops than the depth budget supports; with a 4-prime toy
    // chain and a depth-4 tower there is no room to drop everything.
    EXPECT_LT(allowed_at_start, fx.scheme.levels() - 1);
}

// -- the pass ----------------------------------------------------------

TEST(ModSwitchPassTest, MarksPointsAfterMulsAndFingerprints)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const CompilerDriver driver(&ruleset);
    const ir::ExprPtr source = ir::parse("(+ (* a b) (* c d))");

    DriverConfig off = DriverConfig::greedy({}, 12);
    DriverConfig on = off;
    on.passes.push_back("mod-switch");

    const Compiled without = driver.compile(source, off);
    EXPECT_TRUE(without.program.mod_switch.empty());

    const Compiled with = driver.compile(source, on);
    ASSERT_FALSE(with.program.mod_switch.empty());
    for (const int point : with.program.mod_switch.points) {
        ASSERT_GT(point, 0);
        ASSERT_LE(point,
                  static_cast<int>(with.program.instrs.size()));
        // Every marked point sits immediately after a ct-ct multiply.
        EXPECT_EQ(with.program.instrs[static_cast<std::size_t>(point - 1)]
                      .op,
                  FheOpcode::Mul);
    }
    // The instruction streams agree; only the plan differs — and the
    // plan is part of both the fingerprint and the disassembly.
    EXPECT_NE(off.fingerprint(), on.fingerprint());
    EXPECT_NE(without.program.disassemble(),
              with.program.disassemble());

    // The margin is a fingerprinted parameter of the pass when (and
    // only when) the pass is present.
    DriverConfig margin = on;
    margin.mod_switch_margin = 20;
    EXPECT_NE(on.fingerprint(), margin.fingerprint());
    DriverConfig margin_off = off;
    margin_off.mod_switch_margin = 20;
    EXPECT_EQ(off.fingerprint(), margin_off.fingerprint());
}

// -- end-to-end: on vs off ---------------------------------------------

TEST(ModSwitchRuntimeTest, DecodedOutputsIdenticalOnVsOff)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const CompilerDriver driver(&ruleset);
    // Rotate-reduce dot product: multiplies followed by adds and
    // rotations — real post-drop work for the gate to protect.
    const ir::ExprPtr source = ir::parse(
        "(VecAdd (VecMul (Vec a b c d) (Vec e f g h))"
        "        (<< (VecMul (Vec a b c d) (Vec e f g h)) 2))");
    const ir::Env env = {{"a", 3}, {"b", 1}, {"c", 4}, {"d", 1},
                         {"e", 5}, {"f", 9}, {"g", 2}, {"h", 6}};

    DriverConfig off = DriverConfig::greedy({}, 12);
    DriverConfig on = off;
    on.passes.push_back("mod-switch");

    FheRuntime runtime(smallParams());
    const RunResult plain = runtime.run(
        driver.compile(source, off).program, env);
    const RunResult switched = runtime.run(
        driver.compile(source, on).program, env);

    EXPECT_EQ(plain.mod_switch_drops, 0);
    EXPECT_GT(switched.mod_switch_drops, 0);
    EXPECT_EQ(plain.output, switched.output);
    // Drops spend modulus, not correctness: the budget (measured
    // against the smaller chain) must stay positive.
    EXPECT_GT(switched.final_noise_budget, 0);

    // Determinism: a second run takes exactly the same drops.
    const RunResult again = runtime.run(
        driver.compile(source, on).program, env);
    EXPECT_EQ(again.mod_switch_drops, switched.mod_switch_drops);
    EXPECT_EQ(again.output, switched.output);
}

// -- the drop schedule and the model's soundness -----------------------

/// The reference for levelSchedule: the drop gate interleaved with
/// evaluation, verbatim. At each marked point it takes drops while
/// canDropBefore passes, then advances the model across the
/// instruction. Returns the chain level each instruction ran at.
std::vector<int>
gateLevels(const FheProgram& program, const RotationKeyPlan& plan,
           const modswitch::NoiseParams& np)
{
    const ModSwitchPlan& ms = program.mod_switch;
    const bool gated = !ms.empty();
    const int full = static_cast<int>(np.level_bits.size());
    modswitch::NoiseState noise;
    std::size_t next_point = 0;
    if (gated) noise = modswitch::initialState(program, np);
    std::vector<int> levels;
    for (std::size_t idx = 0; idx < program.instrs.size(); ++idx) {
        const FheInstr& instr = program.instrs[idx];
        if (gated) {
            while (next_point < ms.points.size() &&
                   ms.points[next_point] < static_cast<int>(idx)) {
                ++next_point;
            }
            if (next_point < ms.points.size() &&
                ms.points[next_point] == static_cast<int>(idx)) {
                while (modswitch::canDropBefore(
                    program, static_cast<int>(idx), noise, np, plan,
                    ms.margin_bits, ms.min_level)) {
                    modswitch::applyDrop(noise, np);
                }
                ++next_point;
            }
        }
        levels.push_back(gated ? noise.level : full);
        if (gated) modswitch::applyInstr(noise, instr, np, plan);
    }
    return levels;
}

/// A compiled program of the property sweep and its inputs.
struct PropertyCase
{
    FheProgram program;
    ir::Env env;
};

/// The programs the property tests sweep: the Porcupine suite at size
/// 4, the Coyote suite and 20 seeded motif programs, each compiled
/// greedy with the mod-switch pass.
const std::vector<PropertyCase>&
propertyCases()
{
    static const std::vector<PropertyCase> cases = [] {
        std::vector<ir::ExprPtr> sources;
        for (const benchsuite::Kernel& kernel : benchsuite::porcupineSuite(4)) {
            sources.push_back(kernel.program);
        }
        for (const benchsuite::Kernel& kernel : benchsuite::coyoteSuite()) {
            sources.push_back(kernel.program);
        }
        dataset::MotifSynthesizer motifs(2024);
        for (int i = 0; i < 20; ++i) sources.push_back(motifs.generate());

        const trs::Ruleset ruleset = trs::buildChehabRuleset();
        const CompilerDriver driver(&ruleset);
        DriverConfig pipeline = DriverConfig::greedy();
        pipeline.passes.push_back("mod-switch");
        std::vector<PropertyCase> out;
        for (const ir::ExprPtr& source : sources) {
            out.push_back({driver.compile(source, pipeline).program,
                           benchsuite::syntheticInputs(source)});
        }
        return out;
    }();
    return cases;
}

fhe::SealLiteParams
propertyParams(int n, int decomp_bits)
{
    fhe::SealLiteParams params;
    params.n = n;
    params.prime_count = 4;
    params.decomp_bits = decomp_bits;
    return params;
}

TEST(ModSwitchSoundnessTest, ModelBoundsEveryRegistersMeasuredPhase)
{
    // For every ciphertext register R, run the program with R as its
    // output and compare R's measured phase bits (the chain's bits at
    // the final level, less one, less R's remaining budget) with the
    // model's estimate replayed along the drop schedule. The model is
    // an upper bound, so the estimate may never be smaller.
    int registers = 0;
    int min_slack = 1 << 30;
    for (const int decomp_bits : {10, 15}) {
        FheRuntime runtime(propertyParams(1024, decomp_bits));
        fhe::SealLite& scheme = runtime.scheme();
        const modswitch::NoiseParams np =
            modswitch::noiseParamsFor(scheme, scheme.freshNoiseBudget());
        for (const auto& [program, env] : propertyCases()) {
            const RotationKeyPlan plan = effectiveKeyPlan(program, 0);
            const std::vector<int> levels =
                modswitch::levelSchedule(program, plan, np);

            modswitch::NoiseState model =
                modswitch::initialState(program, np);
            for (std::size_t idx = 0; idx < program.instrs.size(); ++idx) {
                while (model.level > levels[idx]) {
                    modswitch::applyDrop(model, np);
                }
                modswitch::applyInstr(model, program.instrs[idx], np, plan);
            }

            for (const FheInstr& instr : program.instrs) {
                if (instr.op == FheOpcode::PackPlain) continue;
                FheProgram probe = program;
                probe.output_reg = instr.dst;
                probe.output_width = 1;
                const RunResult run = runtime.run(probe, env);
                EXPECT_EQ(run.mod_switch_drops,
                          scheme.levels() - levels.back());
                const int measured =
                    scheme.coeffModulusBitsAt(scheme.levels() -
                                              run.mod_switch_drops) -
                    1 - run.final_noise_budget;
                const int estimate =
                    model.bits[static_cast<std::size_t>(instr.dst)];
                EXPECT_GE(estimate, measured)
                    << "r" << instr.dst << " decomp_bits " << decomp_bits
                    << "\n" << program.disassemble();
                min_slack = std::min(min_slack, estimate - measured);
                ++registers;
            }
        }
    }
    EXPECT_GT(registers, 1000);
    RecordProperty("registers", registers);
    RecordProperty("min_slack_bits", min_slack);
}

TEST(ModSwitchScheduleTest, MatchesTheInterleavedGateOnCompiledPrograms)
{
    int dropping = 0;
    for (const int n : {1024, 4096}) {
        for (const int decomp_bits : {10, 15}) {
            fhe::SealLite scheme(propertyParams(n, decomp_bits));
            const modswitch::NoiseParams np = modswitch::noiseParamsFor(
                scheme, scheme.freshNoiseBudget());
            for (const auto& [program, env] : propertyCases()) {
                const RotationKeyPlan plan = effectiveKeyPlan(program, 0);
                const std::vector<int> levels =
                    modswitch::levelSchedule(program, plan, np);
                EXPECT_EQ(levels, gateLevels(program, plan, np))
                    << "n " << n << " decomp_bits " << decomp_bits << "\n"
                    << program.disassemble();
                if (!levels.empty() && levels.back() < scheme.levels()) {
                    ++dropping;
                }
            }
        }
    }
    EXPECT_GT(dropping, 0);
}

TEST(ModSwitchScheduleTest, MatchesTheInterleavedGateOnHandMarkedPlans)
{
    // Plans shaped like artifact data rather than the pass's output:
    // unsorted and repeated points, a point at 0, points at and past
    // the end, and margins and floors the pass never sets.
    fhe::SealLite scheme(propertyParams(1024, 10));
    const modswitch::NoiseParams np =
        modswitch::noiseParamsFor(scheme, scheme.freshNoiseBudget());
    int drops = 0;
    for (const auto& [program, env] : propertyCases()) {
        const RotationKeyPlan plan = effectiveKeyPlan(program, 0);
        const int size = static_cast<int>(program.instrs.size());
        std::vector<int> every(static_cast<std::size_t>(size));
        for (int i = 0; i < size; ++i) every[static_cast<std::size_t>(i)] = i;
        const std::vector<std::vector<int>> point_sets = {
            {size - 1, 2, 0, 2, 1},
            {0, 0, 0},
            {1, size, size + 3},
            {-1, size / 2, size / 2},
            every,
        };
        for (const std::vector<int>& points : point_sets) {
            for (const int margin_bits : {0, 40}) {
                for (const int min_level : {0, 1}) {
                    FheProgram marked = program;
                    marked.mod_switch.points = points;
                    marked.mod_switch.margin_bits = margin_bits;
                    marked.mod_switch.min_level = min_level;
                    const std::vector<int> levels =
                        modswitch::levelSchedule(marked, plan, np);
                    EXPECT_EQ(levels, gateLevels(marked, plan, np))
                        << "margin " << margin_bits << " min_level "
                        << min_level << "\n"
                        << marked.disassemble();
                    if (!levels.empty()) {
                        drops += scheme.levels() - levels.back();
                    }
                }
            }
        }
    }
    EXPECT_GT(drops, 0);
}

TEST(ModSwitchScheduleTest, EmptyPlanRunsEveryInstructionAtTheFullChain)
{
    fhe::SealLite scheme(propertyParams(1024, 10));
    const modswitch::NoiseParams np =
        modswitch::noiseParamsFor(scheme, scheme.freshNoiseBudget());
    for (const auto& [program, env] : propertyCases()) {
        FheProgram unmarked = program;
        unmarked.mod_switch = {};
        const RotationKeyPlan plan = effectiveKeyPlan(unmarked, 0);
        EXPECT_EQ(modswitch::levelSchedule(unmarked, plan, np),
                  std::vector<int>(unmarked.instrs.size(), scheme.levels()));
    }
}

} // namespace
} // namespace chehab::compiler
