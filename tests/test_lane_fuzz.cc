/// \file
/// Packed-vs-solo differential fuzz harness for the slot-batching
/// coalescer, plus directed regressions for the rotation-margin rules.
///
/// The lane-safety analysis (service::analyzeLaneFit) is the single
/// soundness gate between "pack these requests into one ciphertext
/// row" and silent cross-lane data corruption, so its correctness
/// story must be machine-checked, not hand-argued. The harness
/// generates seeded random FHE programs — rotations with positive,
/// negative and NAF-decomposed steps, constant masks (with and without
/// zero tails), replicated and zero-padded packs, adds, subs and
/// multiplies — and for every program:
///
///   - when analyzeLaneFit certifies a stride, executes the program
///     as a packed row (FheRuntime::execute over a programRow, and
///     cross-kernel composites as a composed row) and solo, and asserts
///     bit-identical per-lane outputs whenever both executions keep a
///     positive noise budget (the service's own fallback guard);
///   - when it refuses, asserts the refusal reason is populated.
///
/// Seeds are fixed: every run checks the same programs. The default
/// ctest entry runs the quick variant; the exhaustive *Heavy* variants
/// are registered separately under the `slow` ctest label (excluded
/// from default invocations, run on demand via `ctest -L slow`).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "compiler/keyselect.h"
#include "compiler/runtime.h"
#include "compiler/schedule.h"
#include "fhe/ntt.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "service/batch_planner.h"
#include "service/compile_service.h"
#include "service/shard_router.h"

namespace chehab::service {
namespace {

using compiler::FheInstr;
using compiler::FheOpcode;
using compiler::FheProgram;
using compiler::PackSlot;
using compiler::RotationKeyPlan;

fhe::SealLiteParams
fuzzParams()
{
    fhe::SealLiteParams params;
    params.n = 128; // 64-slot row: strides stay small, runs stay fast.
    params.prime_count = 4;
    params.seed = 29;
    return params;
}

constexpr int kRowSlots = 64; // fuzzParams().n / 2

/// One generated program plus the number of ciphertext input variables
/// it binds (v0..v{num_vars-1}).
struct GenProgram
{
    FheProgram program;
    int num_vars = 0;
};

/// Deterministic inputs for lane \p lane of generated program \p gen.
ir::Env
fuzzInputs(const GenProgram& gen, int lane)
{
    ir::Env env;
    for (int v = 0; v < gen.num_vars; ++v) {
        env["v" + std::to_string(v)] =
            (lane * 37 + v * 11 + 5) % 97 + 1;
    }
    return env;
}

/// Random small FHE program over ciphertext packs, constant masks,
/// adds/subs/muls and rotations (positive and negative steps).
GenProgram
genProgram(std::mt19937& rng)
{
    auto pick = [&rng](int lo, int hi) {
        return lo + static_cast<int>(rng() % static_cast<unsigned>(
                                                 hi - lo + 1));
    };
    GenProgram gen;
    FheProgram& program = gen.program;
    std::vector<int> cts;
    std::vector<int> plains;
    int reg = 0;

    const int num_ct_packs = pick(1, 2);
    for (int p = 0; p < num_ct_packs; ++p) {
        FheInstr pack;
        pack.op = FheOpcode::PackCipher;
        pack.dst = reg++;
        pack.replicate = pick(0, 3) == 0;
        const int width = pick(1, 6);
        for (int i = 0; i < width; ++i) {
            PackSlot slot;
            if (pick(0, 3) == 0) {
                slot.kind = PackSlot::Kind::Const;
                slot.value = pick(0, 5); // Zeros included: zero support.
            } else {
                slot.kind = PackSlot::Kind::CtVar;
                slot.name = "v" + std::to_string(gen.num_vars++);
            }
            pack.slots.push_back(std::move(slot));
        }
        cts.push_back(pack.dst);
        program.instrs.push_back(std::move(pack));
    }
    if (pick(0, 1) == 0) {
        // A constant mask pack: zero-tailed half the time (the shape
        // the mask-cleaning rule exists for), replicated sometimes.
        FheInstr mask;
        mask.op = FheOpcode::PackPlain;
        mask.dst = reg++;
        mask.replicate = pick(0, 2) == 0;
        const int width = pick(1, 6);
        const int tail = pick(0, 1) == 0 ? pick(0, width) : width;
        for (int i = 0; i < width; ++i) {
            PackSlot slot;
            slot.kind = PackSlot::Kind::Const;
            slot.value = i < tail ? pick(1, 3) : 0;
            mask.slots.push_back(std::move(slot));
        }
        plains.push_back(mask.dst);
        program.instrs.push_back(std::move(mask));
    }

    const int num_ops = pick(2, 8);
    for (int i = 0; i < num_ops; ++i) {
        FheInstr instr;
        instr.dst = reg++;
        const int choice = pick(0, 9);
        if (choice < 2) { // Rotate, mixed sign and magnitude.
            instr.op = FheOpcode::Rotate;
            instr.a = cts[static_cast<std::size_t>(
                pick(0, static_cast<int>(cts.size()) - 1))];
            const int magnitude = pick(0, 1) == 0 ? pick(1, 7) : pick(1, 3) * 4;
            instr.step = pick(0, 1) == 0 ? magnitude : -magnitude;
        } else if (choice < 4 && !plains.empty()) {
            instr.op = choice == 2 ? FheOpcode::MulPlain
                                   : FheOpcode::AddPlain;
            instr.a = cts[static_cast<std::size_t>(
                pick(0, static_cast<int>(cts.size()) - 1))];
            instr.b = plains[static_cast<std::size_t>(
                pick(0, static_cast<int>(plains.size()) - 1))];
        } else if (choice < 6) {
            instr.op = FheOpcode::Mul;
            instr.a = cts[static_cast<std::size_t>(
                pick(0, static_cast<int>(cts.size()) - 1))];
            instr.b = cts[static_cast<std::size_t>(
                pick(0, static_cast<int>(cts.size()) - 1))];
        } else if (choice < 7) {
            instr.op = FheOpcode::Negate;
            instr.a = cts[static_cast<std::size_t>(
                pick(0, static_cast<int>(cts.size()) - 1))];
        } else {
            instr.op = pick(0, 1) == 0 ? FheOpcode::Add : FheOpcode::Sub;
            instr.a = cts[static_cast<std::size_t>(
                pick(0, static_cast<int>(cts.size()) - 1))];
            instr.b = cts[static_cast<std::size_t>(
                pick(0, static_cast<int>(cts.size()) - 1))];
        }
        cts.push_back(instr.dst);
        program.instrs.push_back(std::move(instr));
    }

    program.num_regs = reg;
    program.output_reg = cts.back();
    program.output_width = pick(1, 4);
    return gen;
}

/// Solo-execute \p program once per lane env and compare against the
/// packed per-lane outputs. Returns false (without asserting) when
/// either execution exhausted its noise budget — the service falls
/// back to solo there, so packed bits are not promised.
bool
expectPackedMatchesSolo(const FheProgram& program,
                        const RotationKeyPlan& plan, int stride,
                        const std::vector<ir::Env>& envs,
                        const std::string& context)
{
    std::vector<const ir::Env*> lanes;
    lanes.reserve(envs.size());
    for (const ir::Env& env : envs) lanes.push_back(&env);
    compiler::FheRuntime packed_rt(fuzzParams());
    const compiler::RowResult packed = packed_rt.execute(
        program, plan, compiler::programRow(program, lanes, stride));
    if (packed.shared.final_noise_budget <= 0) return false;
    for (std::size_t l = 0; l < envs.size(); ++l) {
        compiler::FheRuntime solo_rt(fuzzParams());
        const compiler::RunResult solo =
            solo_rt.run(program, envs[l], plan);
        if (solo.final_noise_budget <= 0) return false;
        EXPECT_EQ(packed.member_outputs[0][l], solo.output)
            << context << " lane " << l;
    }
    return true;
}

/// The core fuzz loop: \p iterations seeded random programs, each
/// analyzed and — when certified — differentially executed.
void
fuzzPackedVsSolo(std::uint32_t seed, int iterations)
{
    std::mt19937 rng(seed);
    int certified = 0;
    int compared = 0;
    int refused = 0;
    for (int i = 0; i < iterations; ++i) {
        const GenProgram gen = genProgram(rng);
        const int budget = static_cast<int>(rng() % 3); // 0, 1 or 2.
        RotationKeyPlan plan;
        try {
            plan = compiler::effectiveKeyPlan(gen.program, budget);
        } catch (const std::exception&) {
            continue; // Key selection rejected the step set; not ours.
        }
        const LaneFit fit =
            analyzeLaneFit(gen.program, plan, kRowSlots);
        if (!fit.safe) {
            ++refused;
            // Refusals must always explain themselves.
            EXPECT_FALSE(fit.reason.empty()) << "iteration " << i;
            continue;
        }
        ++certified;
        const int num_lanes =
            2 + static_cast<int>(rng() % static_cast<unsigned>(
                                     std::min(fit.max_lanes - 1, 3)));
        std::vector<ir::Env> envs;
        for (int l = 0; l < num_lanes; ++l) {
            envs.push_back(fuzzInputs(gen, l));
        }
        if (expectPackedMatchesSolo(gen.program, plan, fit.stride, envs,
                                    "seed " + std::to_string(seed) +
                                        " iteration " +
                                        std::to_string(i))) {
            ++compared;
        }
    }
    // The generator must actually exercise both verdicts, and most
    // certified programs must survive the noise guard — otherwise the
    // harness is fuzzing air.
    EXPECT_GT(certified, iterations / 8);
    EXPECT_GT(refused, iterations / 20);
    EXPECT_GT(compared, certified / 2);
}

/// Cross-kernel variant: pack several independently generated programs
/// onto disjoint lane blocks of one composite row and compare every
/// member lane against its solo run.
void
fuzzCompositeVsSolo(std::uint32_t seed, int iterations)
{
    std::mt19937 rng(seed);
    int composed = 0;
    for (int i = 0; i < iterations; ++i) {
        const int num_members = 2 + static_cast<int>(rng() % 2);
        std::vector<GenProgram> gens;
        std::vector<compiler::Compiled> artifacts;
        artifacts.reserve(static_cast<std::size_t>(num_members));
        std::vector<RotationKeyPlan> plans;
        std::vector<LaneFit> fits;
        bool viable = true;
        int stride = 1;
        RotationKeyPlan merged;
        for (int m = 0; m < num_members && viable; ++m) {
            GenProgram gen = genProgram(rng);
            RotationKeyPlan plan;
            try {
                plan = compiler::effectiveKeyPlan(gen.program, 0);
            } catch (const std::exception&) {
                viable = false;
                break;
            }
            const LaneFit fit =
                analyzeLaneFit(gen.program, plan, kRowSlots);
            if (!fit.safe) {
                viable = false;
                break;
            }
            std::optional<RotationKeyPlan> grown =
                m == 0 ? std::optional<RotationKeyPlan>(plan)
                       : mergeKeyPlans(merged, plan);
            if (!grown) {
                viable = false;
                break;
            }
            merged = std::move(*grown);
            stride = std::max(stride, fit.stride);
            gens.push_back(std::move(gen));
            plans.push_back(std::move(plan));
            fits.push_back(fit);
        }
        if (!viable || stride > kRowSlots / 2) continue;

        // Build a canonical-shape group by hand (the planner normally
        // does this) and compose it.
        BatchPlanner::Group group;
        group.row_slots = kRowSlots;
        group.stride = stride;
        group.merged_plan = merged;
        int lane_base = 0;
        std::vector<std::vector<ir::Env>> member_envs;
        for (std::size_t m = 0; m < gens.size(); ++m) {
            const int want =
                1 + static_cast<int>(rng() % 2); // 1-2 lanes each.
            const int lanes = std::min(
                want, kRowSlots / stride - lane_base -
                          (static_cast<int>(gens.size()) - 1 -
                           static_cast<int>(m)));
            if (lanes <= 0) break;
            artifacts.emplace_back();
            artifacts.back().program = gens[m].program;
            BatchPlanner::GroupMember member;
            member.compile.source.hi = m; // Synthetic, distinct.
            member.compiled = &artifacts.back();
            member.plan = plans[m];
            member.min_stride = fits[m].stride;
            member.lane_base = lane_base;
            member.lanes.resize(static_cast<std::size_t>(lanes));
            group.members.push_back(std::move(member));
            group.total_lanes += lanes;
            lane_base += lanes;
            std::vector<ir::Env> envs;
            for (int l = 0; l < lanes; ++l) {
                envs.push_back(fuzzInputs(gens[m], lane_base + l));
            }
            member_envs.push_back(std::move(envs));
        }
        if (group.members.size() < 2) continue;

        const CompositeProgram composite = composeGroup(group);
        compiler::RowPlan row = composite.row;
        for (std::size_t m = 0; m < member_envs.size(); ++m) {
            for (const ir::Env& env : member_envs[m]) {
                row.members[m].lanes.push_back(&env);
            }
        }
        compiler::FheRuntime composite_rt(fuzzParams());
        const compiler::RowResult result =
            composite_rt.execute(composite.program, composite.plan, row);
        ++composed;
        for (std::size_t m = 0; m < group.members.size(); ++m) {
            if (result.member_final_budgets[m] <= 0) continue;
            for (std::size_t l = 0; l < member_envs[m].size(); ++l) {
                compiler::FheRuntime solo_rt(fuzzParams());
                const compiler::RunResult solo = solo_rt.run(
                    gens[m].program, member_envs[m][l], plans[m]);
                if (solo.final_noise_budget <= 0) continue;
                EXPECT_EQ(result.member_outputs[m][l], solo.output)
                    << "seed " << seed << " iteration " << i
                    << " member " << m << " lane " << l;
            }
        }
    }
    EXPECT_GT(composed, 0);
}

/// Service-level variant over the real DSL: random small IR kernels
/// (scalar arithmetic and rotated vectors, through the full compile
/// pipeline) run through a solo service and a cross-kernel batching
/// service; outputs must match bit for bit (the solo service is
/// itself evaluator-checked in test_service_batching.cc).
void
fuzzServiceVsSolo(std::uint32_t seed, int num_kernels,
                  bool mod_switch = false)
{
    std::mt19937 rng(seed);
    auto pick = [&rng](int lo, int hi) {
        return lo + static_cast<int>(rng() % static_cast<unsigned>(
                                                 hi - lo + 1));
    };
    // Random scalar expression over variables a..f and small consts.
    std::function<std::string(int)> genExpr = [&](int depth) {
        if (depth <= 0 || pick(0, 3) == 0) {
            if (pick(0, 2) == 0) return std::to_string(pick(1, 4));
            return std::string(1, static_cast<char>('a' + pick(0, 5)));
        }
        const char* ops[] = {"+", "-", "*"};
        return "(" + std::string(ops[pick(0, 2)]) + " " +
               genExpr(depth - 1) + " " + genExpr(depth - 1) + ")";
    };
    auto genKernel = [&]() {
        if (pick(0, 2) == 0) {
            // A rotated vector kernel: negative steps via >>.
            const std::string dir = pick(0, 1) == 0 ? "<<" : ">>";
            std::string vec = "(Vec";
            const int width = pick(2, 4);
            for (int i = 0; i < width; ++i) {
                vec += " " + std::string(1, static_cast<char>('a' + i));
            }
            vec += ")";
            return "(" + dir + " " + vec + " " +
                   std::to_string(pick(1, 3)) + ")";
        }
        return genExpr(pick(1, 3));
    };

    std::vector<RunRequest> batch;
    for (int k = 0; k < num_kernels; ++k) {
        const std::string text = genKernel();
        for (int copy = 0; copy < 2; ++copy) {
            RunRequest request;
            request.name =
                "k" + std::to_string(k) + "c" + std::to_string(copy);
            request.source = ir::parse(text);
            request.pipeline = compiler::DriverConfig::greedy({}, 12);
            if (mod_switch) {
                // Differential contract under mid-circuit modulus
                // switching: drops may change moduli and noise but
                // never the decoded outputs the solo side produces.
                request.pipeline.passes.push_back("mod-switch");
            }
            for (char v = 'a'; v <= 'f'; ++v) {
                request.inputs[std::string(1, v)] =
                    (k * 13 + copy * 7 + (v - 'a') * 3) % 23 + 1;
            }
            request.key_budget = 0;
            request.params = fuzzParams();
            batch.push_back(std::move(request));
        }
    }

    auto collect = [&batch](ServiceApi& service) {
        std::vector<std::vector<std::int64_t>> outputs;
        for (RunResponse& response : service.runBatch(batch)) {
            EXPECT_TRUE(response.ok)
                << response.name << ": " << response.error;
            outputs.push_back(response.result.output);
        }
        return outputs;
    };
    auto outputsOf = [&collect](const ServiceConfig& config) {
        CompileService service(config);
        return collect(service);
    };
    auto shardedOutputsOf = [&collect](ServiceConfig config, int shards) {
        config.shards = shards;
        ShardedService service(config);
        return collect(service);
    };
    ServiceConfig solo;
    solo.num_workers = 2;
    solo.max_lanes = 1;
    ServiceConfig packed;
    packed.num_workers = 4;
    packed.max_lanes = 0;
    packed.batch_window_seconds = 0.02;
    packed.cross_kernel = true;
    const auto solo_outputs = outputsOf(solo);
    const auto packed_outputs = outputsOf(packed);
    // Differential contract extends across the router: a 1-shard
    // ShardedService is the plain service, and a multi-shard fleet may
    // regroup rows per shard but never change a lane's bits.
    const auto sharded1_outputs = shardedOutputsOf(packed, 1);
    const auto sharded3_outputs = shardedOutputsOf(packed, 3);
    ASSERT_EQ(solo_outputs.size(), packed_outputs.size());
    ASSERT_EQ(solo_outputs.size(), sharded1_outputs.size());
    ASSERT_EQ(solo_outputs.size(), sharded3_outputs.size());
    for (std::size_t i = 0; i < solo_outputs.size(); ++i) {
        EXPECT_EQ(solo_outputs[i], packed_outputs[i])
            << batch[i].name << " (seed " << seed << ")";
        EXPECT_EQ(solo_outputs[i], sharded1_outputs[i])
            << batch[i].name << " 1-shard (seed " << seed << ")";
        EXPECT_EQ(solo_outputs[i], sharded3_outputs[i])
            << batch[i].name << " 3-shard (seed " << seed << ")";
    }
}

// ---- the fuzz harness (quick variants; CI default) --------------------

TEST(LaneFuzzTest, PackedVsSoloBitIdentityWhenCertified)
{
    fuzzPackedVsSolo(/*seed=*/0xC0FFEE, /*iterations=*/120);
}

TEST(LaneFuzzTest, CompositeVsSoloBitIdentityWhenCertified)
{
    fuzzCompositeVsSolo(/*seed=*/0xBEEF, /*iterations=*/60);
}

TEST(LaneFuzzTest, ServicePackedVsSoloOverRandomDsl)
{
    fuzzServiceVsSolo(/*seed=*/0xFACADE, /*num_kernels=*/6);
}

TEST(LaneFuzzTest, ServicePackedVsSoloWithModSwitch)
{
    fuzzServiceVsSolo(/*seed=*/0xFACADE, /*num_kernels=*/6,
                      /*mod_switch=*/true);
}

/// Restores the process-wide NTT SIMD switch when it goes out of scope.
struct ScopedSimd
{
    explicit ScopedSimd(bool enabled) : saved(fhe::simdEnabled())
    {
        fhe::setSimdEnabled(enabled);
    }
    ~ScopedSimd() { fhe::setSimdEnabled(saved); }
    bool saved;
};

/// The whole packed/composite/sharded differential harness must hold on
/// the scalar NTT path too (on an AVX2 build this is the only coverage
/// of the scalar kernels under real service traffic).
TEST(LaneFuzzTest, ServicePackedVsSoloSimdForcedOff)
{
    ScopedSimd guard(false);
    fuzzServiceVsSolo(/*seed=*/0x5CA1A, /*num_kernels=*/4);
}

TEST(LaneFuzzTest, ServicePackedVsSoloSimdForcedOn)
{
    // Clamped to a no-op on scalar builds (setSimdEnabled clamps to
    // simdSupported), so this leg is safe in the no-AVX2 CI matrix leg.
    ScopedSimd guard(true);
    fuzzServiceVsSolo(/*seed=*/0x5CA1A, /*num_kernels=*/4);
}

/// Cross-mode determinism at the service boundary: one batch, the same
/// service configuration, SIMD forced on then off — decoded outputs
/// must be bit-identical (the PR 10 determinism-contract extension).
TEST(LaneFuzzTest, ServiceOutputsInvariantUnderSimdDispatch)
{
    std::vector<RunRequest> batch;
    const char* kernels[] = {
        "(* (+ a b) (- c 2))",
        "(<< (Vec a b c d) 1)",
        "(+ (* a a) (* b (- c d)))",
    };
    int k = 0;
    for (const char* text : kernels) {
        RunRequest request;
        request.name = "simd-k" + std::to_string(k++);
        request.source = ir::parse(text);
        request.pipeline = compiler::DriverConfig::greedy({}, 12);
        for (char v = 'a'; v <= 'f'; ++v) {
            request.inputs[std::string(1, v)] = (v - 'a') * 5 + 2;
        }
        request.key_budget = 0;
        request.params = fuzzParams();
        batch.push_back(std::move(request));
    }
    auto outputsWithSimd = [&batch](bool simd) {
        ScopedSimd guard(simd);
        ServiceConfig config;
        config.num_workers = 2;
        CompileService service(config);
        std::vector<std::vector<std::int64_t>> outputs;
        for (RunResponse& response : service.runBatch(batch)) {
            EXPECT_TRUE(response.ok)
                << response.name << ": " << response.error;
            outputs.push_back(std::move(response.result.output));
        }
        return outputs;
    };
    EXPECT_EQ(outputsWithSimd(true), outputsWithSimd(false));
}

// ---- heavy variants (ctest label: slow) -------------------------------

TEST(LaneFuzzHeavyTest, PackedVsSoloManySeeds)
{
    for (std::uint32_t seed : {7u, 1337u, 424242u}) {
        fuzzPackedVsSolo(seed, /*iterations=*/250);
    }
}

TEST(LaneFuzzHeavyTest, CompositeVsSoloManySeeds)
{
    for (std::uint32_t seed : {11u, 2025u}) {
        fuzzCompositeVsSolo(seed, /*iterations=*/150);
    }
}

TEST(LaneFuzzHeavyTest, ServicePackedVsSoloManySeeds)
{
    for (std::uint32_t seed : {3u, 99u}) {
        fuzzServiceVsSolo(seed, /*num_kernels=*/10);
    }
}

TEST(LaneFuzzHeavyTest, ServicePackedVsSoloManySeedsWithModSwitch)
{
    for (std::uint32_t seed : {3u, 99u, 7771u}) {
        fuzzServiceVsSolo(seed, /*num_kernels=*/10, /*mod_switch=*/true);
    }
}

// ---- directed regressions: rotation margins ---------------------------

/// Width-4 zero-tailed pack rotated by a NAF-decomposed step whose
/// sequence contains a negative component (7 -> {-1, 8}). The
/// component-wise dataflow used to lose the zero tail at the
/// intermediate step and demand stride 16; the net-displacement rule
/// certifies stride 8 — and the packed bits prove it sound.
TEST(LaneFuzzTest, NafNegativeComponentCertifiesAtNetStride)
{
    FheProgram program;
    FheInstr pack;
    pack.op = FheOpcode::PackCipher;
    pack.dst = 0;
    for (int i = 0; i < 4; ++i) {
        PackSlot slot;
        slot.kind = PackSlot::Kind::CtVar;
        slot.name = "v" + std::to_string(i);
        pack.slots.push_back(std::move(slot));
    }
    program.instrs.push_back(std::move(pack));
    FheInstr rot;
    rot.op = FheOpcode::Rotate;
    rot.a = 0;
    rot.dst = 1;
    rot.step = 7;
    program.instrs.push_back(std::move(rot));
    program.num_regs = 2;
    program.output_reg = 1;
    program.output_width = 1;

    RotationKeyPlan plan;
    plan.keys = {-1, 8};
    plan.decomposition[7] = {-1, 8};
    const LaneFit fit = analyzeLaneFit(program, plan, kRowSlots);
    ASSERT_TRUE(fit.safe) << fit.reason;
    EXPECT_EQ(fit.stride, 8);

    std::vector<ir::Env> envs;
    for (int l = 0; l < 3; ++l) {
        GenProgram gen;
        gen.num_vars = 4;
        envs.push_back(fuzzInputs(gen, l));
    }
    EXPECT_TRUE(expectPackedMatchesSolo(program, plan, fit.stride, envs,
                                        "naf step 7"));
}

/// A *negative* rotation of a zero-tailed pack, decomposed into a
/// mixed-sign NAF sequence (-3 -> {1, -4}). Component-wise margins
/// refused this outright (the intermediate left rotation destroyed the
/// zero tail, so the right component dirtied the readout base); the
/// net rule certifies it, because the net displacement only drags
/// provable zeros into the lane.
TEST(LaneFuzzTest, NegativeNafStepCertifies)
{
    FheProgram program;
    FheInstr pack;
    pack.op = FheOpcode::PackCipher;
    pack.dst = 0;
    for (int i = 0; i < 4; ++i) {
        PackSlot slot;
        slot.kind = PackSlot::Kind::CtVar;
        slot.name = "v" + std::to_string(i);
        pack.slots.push_back(std::move(slot));
    }
    program.instrs.push_back(std::move(pack));
    FheInstr rot;
    rot.op = FheOpcode::Rotate;
    rot.a = 0;
    rot.dst = 1;
    rot.step = -3;
    program.instrs.push_back(std::move(rot));
    program.num_regs = 2;
    program.output_reg = 1;
    program.output_width = 4;

    RotationKeyPlan plan;
    plan.keys = {1, -4};
    plan.decomposition[-3] = {1, -4};
    const LaneFit fit = analyzeLaneFit(program, plan, kRowSlots);
    ASSERT_TRUE(fit.safe) << fit.reason;
    EXPECT_EQ(fit.stride, 8);

    std::vector<ir::Env> envs;
    for (int l = 0; l < 2; ++l) {
        GenProgram gen;
        gen.num_vars = 4;
        envs.push_back(fuzzInputs(gen, l));
    }
    EXPECT_TRUE(expectPackedMatchesSolo(program, plan, fit.stride, envs,
                                        "naf step -3"));
}

/// Left-rotation margin wraparound: a decomposition whose intermediate
/// rotation sweeps past the whole lane region ({8, -5}, net 3) must
/// stay exact — whole-row rotations compose exactly, so the analysis
/// may treat the sequence as its net — and a rotation whose *net*
/// reaches the region boundary must refuse at that stride and certify
/// only at the next.
TEST(LaneFuzzTest, LeftRotationMarginWraparound)
{
    FheProgram program;
    FheInstr pack;
    pack.op = FheOpcode::PackCipher;
    pack.dst = 0;
    for (int i = 0; i < 4; ++i) {
        PackSlot slot;
        slot.kind = PackSlot::Kind::CtVar;
        slot.name = "v" + std::to_string(i);
        pack.slots.push_back(std::move(slot));
    }
    program.instrs.push_back(std::move(pack));
    FheInstr rot;
    rot.op = FheOpcode::Rotate;
    rot.a = 0;
    rot.dst = 1;
    rot.step = 3;
    program.instrs.push_back(std::move(rot));
    program.num_regs = 2;
    program.output_reg = 1;
    program.output_width = 1;

    // Custom plan: 3 realized as a wraparound sequence {8, -5}.
    RotationKeyPlan plan;
    plan.keys = {8, -5};
    plan.decomposition[3] = {8, -5};
    const LaneFit fit = analyzeLaneFit(program, plan, kRowSlots);
    ASSERT_TRUE(fit.safe) << fit.reason;
    // Net 3 leaves exactly one clean slot at stride 4 (the pack width),
    // which is all the width-1 readout needs.
    EXPECT_EQ(fit.stride, 4);
    std::vector<ir::Env> envs;
    for (int l = 0; l < 2; ++l) {
        GenProgram gen;
        gen.num_vars = 4;
        envs.push_back(fuzzInputs(gen, l));
    }
    EXPECT_TRUE(expectPackedMatchesSolo(program, plan, fit.stride, envs,
                                        "wraparound sequence {8,-5}"));

    // Net displacement = the whole stride: every slot of the region is
    // dragged across the boundary, so stride 8 must refuse; 16 pads
    // enough clean slots.
    program.instrs[1].step = 8;
    RotationKeyPlan wide;
    wide.keys = {8};
    wide.decomposition[8] = {8};
    const LaneFit refused = analyzeLaneFit(program, wide, 8 * 2);
    EXPECT_FALSE(refused.safe);
    EXPECT_FALSE(refused.reason.empty());
    const LaneFit wider = analyzeLaneFit(program, wide, kRowSlots);
    ASSERT_TRUE(wider.safe) << wider.reason;
    EXPECT_EQ(wider.stride, 16);
}

/// The periodicity guard: a replicated constant mask whose width does
/// not divide the candidate stride is NOT rotation-exact (per-region
/// replication restarts the phase each region; the solo row's period
/// runs straight through), so rotating one must not certify on the
/// uniform fast path.
TEST(LaneFuzzTest, NonDividingReplicatedMaskIsNotPeriodic)
{
    FheProgram program;
    FheInstr pack;
    pack.op = FheOpcode::PackCipher;
    pack.dst = 0;
    pack.replicate = true;
    for (std::int64_t v : {1, 2, 3}) { // Width 3: divides no pow2 stride.
        PackSlot slot;
        slot.kind = PackSlot::Kind::Const;
        slot.value = v;
        pack.slots.push_back(std::move(slot));
    }
    program.instrs.push_back(std::move(pack));
    FheInstr rot;
    rot.op = FheOpcode::Rotate;
    rot.a = 0;
    rot.dst = 1;
    rot.step = 2;
    program.instrs.push_back(std::move(rot));
    program.num_regs = 2;
    program.output_reg = 1;
    program.output_width = 4;

    const RotationKeyPlan plan = compiler::effectiveKeyPlan(program, 0);
    const LaneFit fit = analyzeLaneFit(program, plan, kRowSlots);
    // Certification via the dirty-margin rules (at some stride) is
    // fine; what must NOT happen is the uniform-periodic shortcut
    // certifying the smallest stride where packed and solo rows
    // disagree. Verify whatever was certified against the runtime.
    if (fit.safe) {
        std::vector<ir::Env> envs(2);
        EXPECT_TRUE(expectPackedMatchesSolo(program, plan, fit.stride,
                                            envs, "width-3 mask"));
    } else {
        EXPECT_FALSE(fit.reason.empty());
    }
}

} // namespace
} // namespace chehab::service
