/// \file
/// End-to-end execution tests: scheduled programs run on SealLite and
/// must reproduce the reference evaluator's outputs — for hand-written
/// circuits, optimizer outputs, CoyoteSim outputs, and with NAF-selected
/// rotation keys. This closes the loop from DSL to homomorphic hardware.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/coyote_sim.h"
#include "benchsuite/kernels.h"
#include "compiler/driver.h"
#include "compiler/pipeline.h"
#include "compiler/runtime.h"
#include "ir/parser.h"
#include "service/batch_planner.h"
#include "support/rng.h"

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

/// Run `text` through schedule+SealLite and compare every output slot to
/// the reference slot evaluator.
void
expectMatchesReference(const std::string& text, const ir::Env& env,
                       int key_budget = 0)
{
    const ir::ExprPtr program = ir::parse(text);
    const FheProgram scheduled = schedule(program);
    FheRuntime runtime(smallParams());
    const RunResult run = runtime.run(scheduled, env, key_budget);

    const ir::Value expected = ir::Evaluator().evaluate(program, env);
    ASSERT_EQ(static_cast<int>(run.output.size()),
              expected.is_vector ? expected.width() : 1);
    for (std::size_t i = 0; i < run.output.size(); ++i) {
        EXPECT_EQ(run.output[i], expected.slots[i]) << text << " slot " << i;
    }
    EXPECT_GT(run.final_noise_budget, 0) << "budget exhausted for " << text;
}

TEST(RuntimeTest, ScalarArithmetic)
{
    expectMatchesReference("(+ (* a b) c)", {{"a", 3}, {"b", 4}, {"c", 5}});
}

TEST(RuntimeTest, PlaintextOperands)
{
    expectMatchesReference("(+ (* (pt w) x) 7)", {{"w", 3}, {"x", 11}});
}

TEST(RuntimeTest, VectorizedCircuit)
{
    expectMatchesReference("(VecAdd (VecMul (Vec a b) (Vec c d)) (Vec e f))",
                           {{"a", 2}, {"b", 3}, {"c", 4},
                            {"d", 5}, {"e", 6}, {"f", 7}});
}

TEST(RuntimeTest, Pow2RotationSemantics)
{
    expectMatchesReference("(<< (Vec a b c d) 1)",
                           {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}});
    expectMatchesReference("(<< (Vec a b c d) 3)",
                           {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}});
}

TEST(RuntimeTest, NonPow2RotationSemantics)
{
    expectMatchesReference("(<< (Vec a b c) 1)",
                           {{"a", 1}, {"b", 2}, {"c", 3}});
    expectMatchesReference("(<< (Vec a b c d e) 2)",
                           {{"a", 1}, {"b", 2}, {"c", 3},
                            {"d", 4}, {"e", 5}});
}

TEST(RuntimeTest, ComputedPack)
{
    expectMatchesReference("(Vec a (+ x y) b c)",
                           {{"a", 1}, {"x", 2}, {"y", 3},
                            {"b", 4}, {"c", 5}});
}

TEST(RuntimeTest, RotateReduceDotProduct)
{
    // The optimizer's signature circuit shape.
    expectMatchesReference(
        "(VecAdd (VecAdd (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3))"
        "                (<< (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3)) 2))"
        "        (<< (VecAdd (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3))"
        "            (<< (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3)) 2)) 1))",
        {{"a0", 1}, {"a1", 2}, {"a2", 3}, {"a3", 4},
         {"b0", 5}, {"b1", 6}, {"b2", 7}, {"b3", 8}});
}

TEST(RuntimeTest, NafKeyBudgetStillCorrect)
{
    // Rotations by 3 and 5 decompose under a tight key budget but must
    // compute the same result.
    expectMatchesReference(
        "(VecAdd (<< (Vec a b c d e f g h) 3)"
        "        (<< (Vec a b c d e f g h) 5))",
        {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4},
         {"e", 5}, {"f", 6}, {"g", 7}, {"h", 8}},
        /*key_budget=*/3);
}

TEST(RuntimeTest, GreedyPipelineEndToEnd)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const ir::ExprPtr source =
        ir::parse("(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))");
    const Compiled compiled = compileGreedy(ruleset, source);
    EXPECT_LT(compiled.stats.final_cost, compiled.stats.initial_cost);

    FheRuntime runtime(smallParams());
    const ir::Env env = {{"a0", 1}, {"a1", 2}, {"a2", 3}, {"a3", 4},
                         {"b0", 5}, {"b1", 6}, {"b2", 7}, {"b3", 8}};
    const RunResult run = runtime.run(compiled.program, env);
    EXPECT_EQ(run.output[0], 70);
}

TEST(RuntimeTest, CoyoteSimEndToEnd)
{
    baselines::CoyoteConfig config;
    config.search_budget = 2000;
    const ir::ExprPtr source = ir::parse(
        "(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))");
    const baselines::CoyoteResult coyote =
        baselines::coyoteCompile(source, config);
    ASSERT_NE(coyote.program, nullptr);
    EXPECT_TRUE(ir::equivalentOn(source, coyote.program, 8));

    FheRuntime runtime(smallParams());
    const ir::Env env = {{"a", 2}, {"b", 3}, {"c", 4}, {"d", 5},
                         {"e", 6}, {"f", 7}, {"g", 8}, {"h", 9}};
    const RunResult run = runtime.run(schedule(coyote.program), env);
    ASSERT_GE(run.output.size(), 2u);
    EXPECT_EQ(run.output[0], 2 * 3 + 4 * 5);
    EXPECT_EQ(run.output[1], 6 * 7 + 8 * 9);
}

TEST(RuntimeTest, NoiseConsumptionReported)
{
    const FheProgram program =
        schedule(ir::parse("(VecMul (Vec a b) (Vec c d))"));
    FheRuntime runtime(smallParams());
    const RunResult run =
        runtime.run(program, {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}});
    EXPECT_GT(run.consumed_noise, 5);
    EXPECT_EQ(run.fresh_noise_budget,
              run.final_noise_budget + run.consumed_noise);
}

TEST(RuntimeTest, CalibrationAndEstimate)
{
    FheRuntime runtime(smallParams());
    const OpLatencies lat = runtime.calibrate(1);
    EXPECT_GT(lat.ct_ct_mul, lat.ct_add);
    const FheProgram program =
        schedule(ir::parse("(VecMul (Vec a b) (Vec c d))"));
    EXPECT_GT(runtime.estimate(program, lat), 0.0);
}

// ---- key-plan validation ----------------------------------------------

/// Hand-built: v = replicated pack of (a b c d); out = v << 1.
FheProgram
rotateByOne()
{
    FheProgram program;
    FheInstr pack;
    pack.op = FheOpcode::PackCipher;
    pack.dst = 0;
    pack.replicate = true;
    for (const char* name : {"a", "b", "c", "d"}) {
        PackSlot slot;
        slot.kind = PackSlot::Kind::CtVar;
        slot.name = name;
        pack.slots.push_back(slot);
    }
    program.instrs.push_back(pack);
    FheInstr rot;
    rot.op = FheOpcode::Rotate;
    rot.a = 0;
    rot.step = 1;
    rot.dst = 1;
    program.instrs.push_back(rot);
    program.num_regs = 2;
    program.output_reg = 1;
    program.output_width = 4;
    return program;
}

/// The CompileError message running \p program under \p plan draws, or
/// "" when the run succeeds.
std::string
keyPlanError(FheRuntime& runtime, const FheProgram& program,
             const RotationKeyPlan& plan, const ir::Env& env)
{
    try {
        runtime.run(program, env, plan);
    } catch (const CompileError& e) {
        return e.what();
    }
    return "";
}

TEST(RuntimeTest, IncompleteKeyPlanIsTypedError)
{
    // A plan that cannot execute a rotation is refused before keygen
    // with a CompileError, instead of SealLite's missing-key abort or
    // an unordered_map::at deep in evaluation.
    const FheProgram program = rotateByOne();
    const ir::Env env = {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}};
    FheRuntime runtime(smallParams());

    RotationKeyPlan no_decomposition;
    no_decomposition.keys = {1};
    EXPECT_NE(keyPlanError(runtime, program, no_decomposition, env)
                  .find("no decomposition for step 1"),
              std::string::npos);

    RotationKeyPlan no_key;
    no_key.keys = {2};
    no_key.decomposition[1] = {1};
    EXPECT_NE(keyPlanError(runtime, program, no_key, env)
                  .find("no Galois key for component 1 of step 1"),
              std::string::npos);

    // The runtime stays usable. A component that is a whole-row
    // rotation (zero mod slots) needs no key, and a key named by an
    // equivalent step (1 + slots) counts.
    const int slots = runtime.slots();
    RotationKeyPlan wrapped;
    wrapped.keys = {1 + slots};
    wrapped.decomposition[1] = {1, slots};
    const RunResult run = runtime.run(program, env, wrapped);
    EXPECT_EQ(run.output, (std::vector<std::int64_t>{2, 3, 4, 1}));
    EXPECT_GT(run.final_noise_budget, 0);
}

TEST(RuntimeTest, ZeroWidthReplicatedPackIsTypedError)
{
    // A replicated PackCipher with no slots (which a deserialized
    // artifact can carry) would divide by zero filling the row: it must
    // be a CompileError, and the runtime must stay usable.
    FheProgram program;
    FheInstr pack;
    pack.op = FheOpcode::PackCipher;
    pack.dst = 0;
    pack.replicate = true;
    program.instrs.push_back(pack);
    program.num_regs = 1;
    program.output_reg = 0;
    program.output_width = 1;
    FheRuntime runtime(smallParams());
    try {
        runtime.run(program, {});
        ADD_FAILURE() << "a zero-width replicated pack ran";
    } catch (const CompileError& e) {
        EXPECT_NE(std::string(e.what()).find("replicated pack has no slots"),
                  std::string::npos)
            << e.what();
    }

    const ir::Env env = {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}};
    const RunResult run = runtime.run(rotateByOne(), env);
    EXPECT_EQ(run.output, (std::vector<std::int64_t>{2, 3, 4, 1}));
}

TEST(RuntimeTest, UndefinedRegisterIsTypedError)
{
    // A register read before anything defines it is refused before
    // keygen with a CompileError. Unchecked, a dying undefined operand
    // is consumed through an empty node handle (a crash), and an
    // undefined second operand or output register escapes as an
    // untyped std::out_of_range.
    const ir::Env env = {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}};
    FheRuntime runtime(smallParams());
    const auto op = [](FheOpcode code, int dst, int a, int b = -1) {
        FheInstr instr;
        instr.op = code;
        instr.dst = dst;
        instr.a = a;
        instr.b = b;
        instr.step = 1;
        return instr;
    };
    // r0 = the replicated pack of rotateByOne(), then \p ops.
    const auto program = [](std::vector<FheInstr> ops, int output) {
        FheProgram built = rotateByOne();
        built.instrs.resize(1);
        built.instrs.insert(built.instrs.end(), ops.begin(), ops.end());
        built.num_regs = 3;
        built.output_reg = output;
        return built;
    };
    const auto error = [&](const FheProgram& built) -> std::string {
        try {
            runtime.run(built, env);
        } catch (const CompileError& e) {
            return e.what();
        }
        return "";
    };
    const auto rejects = [&](const FheProgram& built,
                             const std::string& message) {
        const std::string what = error(built);
        EXPECT_NE(what.find(message), std::string::npos)
            << "got '" << what << "', want '" << message << "'";
    };

    // A ciphertext operand nothing defines, dying at its only read.
    rejects(program({op(FheOpcode::Add, 2, 1, 0)}, 2),
            "instruction 1: reads undefined ciphertext r1");
    rejects(program({op(FheOpcode::Rotate, 2, 1)}, 2),
            "instruction 1: reads undefined ciphertext r1");
    // Defined only by a later instruction is not defined yet.
    rejects(program({op(FheOpcode::Add, 1, 0, 2),
                     op(FheOpcode::Negate, 2, 0)},
                    1),
            "instruction 1: reads undefined ciphertext r2");
    // An undefined second operand: ciphertext, and a plaintext operand
    // naming a PackCipher register.
    rejects(program({op(FheOpcode::Add, 2, 0, 1)}, 2),
            "instruction 1: reads undefined ciphertext r1");
    rejects(program({op(FheOpcode::MulPlain, 2, 0, 0)}, 2),
            "instruction 1: reads undefined plaintext r0");
    // Registers outside [0, num_regs).
    rejects(program({op(FheOpcode::Negate, 3, 0)}, 2),
            "instruction 1: writes r3 (3 registers)");
    rejects(program({op(FheOpcode::Negate, 1, -1)}, 1),
            "instruction 1: reads undefined ciphertext r-1");
    // An output register nothing defines.
    rejects(program({op(FheOpcode::Negate, 1, 0)}, 2),
            "output register r2 is never defined");

    // A pack outside every member's slice never runs, so it defines
    // nothing for the slice that reads its register.
    const FheProgram negated = program({op(FheOpcode::Negate, 1, 0)}, 1);
    RowPlan row = programRow(negated, {&env}, runtime.slots());
    row.members.front().instr_begin = 1;
    try {
        runtime.execute(negated, effectiveKeyPlan(negated, 0), row);
        ADD_FAILURE() << "a row read a register its slice never packs";
    } catch (const CompileError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "instruction 1: reads undefined ciphertext r0"),
                  std::string::npos)
            << e.what();
    }

    // The runtime stays usable, and the checks pass what they should:
    // the hand-built pieces above, well-formed.
    EXPECT_EQ(error(negated), "");
    const RunResult run = runtime.run(rotateByOne(), env);
    EXPECT_EQ(run.output, (std::vector<std::int64_t>{2, 3, 4, 1}));
}

TEST(RuntimeTest, EveryOpButMulTakesOneOperand)
{
    // Every op other than Mul takes its first operand exactly once:
    // consumed at its last read, cloned otherwise. With in-place
    // evaluation off every take is a clone, and the words are the same.
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const CompilerDriver driver(&ruleset);
    std::uint64_t consumed = 0;
    for (const benchsuite::Kernel& kernel :
         {benchsuite::polyReg(4), benchsuite::l2Distance(4),
          benchsuite::boxBlur(3), benchsuite::matMul(2)}) {
        const FheProgram program =
            driver.compile(kernel.program, DriverConfig::greedy()).program;
        std::uint64_t takes = 0;
        for (const FheInstr& instr : program.instrs) {
            takes += instr.op != FheOpcode::PackCipher &&
                     instr.op != FheOpcode::PackPlain &&
                     instr.op != FheOpcode::Mul;
        }
        const ir::Env env = benchsuite::syntheticInputs(kernel.program);
        FheRuntime in_place(smallParams());
        FheRuntime cloning(smallParams());
        cloning.setInPlaceEnabled(false);
        const RunResult on = in_place.run(program, env);
        const RunResult off = cloning.run(program, env);
        EXPECT_EQ(on.output, off.output) << kernel.name;
        EXPECT_EQ(on.final_noise_budget, off.final_noise_budget)
            << kernel.name;
        const InPlaceStats on_stats = in_place.inPlaceStats();
        const InPlaceStats off_stats = cloning.inPlaceStats();
        EXPECT_EQ(on_stats.consumed + on_stats.copies, takes) << kernel.name;
        EXPECT_EQ(off_stats.consumed, 0u) << kernel.name;
        EXPECT_EQ(off_stats.copies, takes) << kernel.name;
        consumed += on_stats.consumed;
    }
    EXPECT_GT(consumed, 0u);
}

// ---- accounting goldens ------------------------------------------------
//
// Outputs and noise accounting of every porcupineSuite(8) + coyoteSuite
// kernel at n = 1024 (chehabd's --poly-n 1024 parameters), with the
// mod-switch pass off and on, solo and as one 3-lane row, pinned to
// recorded values: a change to how rows are packed, keyed, evaluated or
// read out shows up as a concrete kernel and field. A mismatch prints
// the computed entry in table syntax.

fhe::SealLiteParams
goldenParams()
{
    fhe::SealLiteParams params;
    params.n = 1024;
    params.prime_count = 4;
    params.seed = 17;
    return params;
}

constexpr std::uint64_t kGoldenSeed = 0x60a1de17ULL;

/// FNV-1a over the decoded slots: order- and length-sensitive.
std::uint64_t
hashOutput(const std::vector<std::int64_t>& output)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::int64_t v : output) {
        for (int b = 0; b < 8; ++b) {
            h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
    h ^= output.size();
    return h;
}

struct RunGolden
{
    const char* kernel;
    bool mod_switch;
    std::uint64_t output_hash;
    int fresh, final_budget, consumed, drops, rotation_keys;
};

/// One 3-lane row at the kernel's smallest certified stride.
struct RowGolden
{
    const char* kernel;
    bool mod_switch;
    int stride;
    std::uint64_t lane_hash[3];
    int final_budget;
};

// clang-format off
constexpr RunGolden kRunGoldens[] = {
    {"Dot Product 4", false, 0xa369df03c84d65a1ULL, 99, 75, 24, 0, 2},
    {"Hamm. Dist. 4", false, 0x1a9b8d7423cbf761ULL, 99, 59, 40, 0, 2},
    {"L2 Distance 4", false, 0xd1b0aed096c264a1ULL, 99, 74, 25, 0, 2},
    {"Linear Reg. 4", false, 0x62f84638e79a1fa7ULL, 99, 76, 23, 0, 0},
    {"Poly. Reg. 4", false, 0xacc425da1a7b98c1ULL, 99, 53, 46, 0, 0},
    {"Dot Product 8", false, 0xd89904d1de44632dULL, 99, 75, 24, 0, 3},
    {"Hamm. Dist. 8", false, 0xe0d7cdb0a8d749ddULL, 99, 59, 40, 0, 3},
    {"L2 Distance 8", false, 0x22def5eedf304c2dULL, 99, 74, 25, 0, 3},
    {"Linear Reg. 8", false, 0xa5b79f0007507967ULL, 99, 76, 23, 0, 0},
    {"Poly. Reg. 8", false, 0x48d70b9023d286bbULL, 99, 53, 46, 0, 0},
    {"Box Blur 3x3", false, 0x8beb0b5d98b8e035ULL, 99, 77, 22, 0, 3},
    {"Box Blur 4x4", false, 0xf04450f043a6ff65ULL, 99, 77, 22, 0, 3},
    {"Box Blur 5x5", false, 0x2347de6c995986b5ULL, 99, 17, 82, 0, 6},
    {"Gx 3x3", false, 0x1a2f2cc26433fbedULL, 99, 15, 84, 0, 6},
    {"Gy 3x3", false, 0xe7583907c17c1c2dULL, 99, 15, 84, 0, 6},
    {"Rob. Cross 3x3", false, 0xc46c8c5d10c61857ULL, 99, 55, 44, 0, 2},
    {"Gx 4x4", false, 0xfd41307a1584a7e5ULL, 99, 74, 25, 0, 3},
    {"Gy 4x4", false, 0xb775c26f55727ee5ULL, 99, 74, 25, 0, 3},
    {"Rob. Cross 4x4", false, 0x97b45abfdc2898c5ULL, 99, 74, 25, 0, 1},
    {"Gx 5x5", false, 0x68f61dd251dc06ddULL, 99, 16, 83, 0, 6},
    {"Gy 5x5", false, 0x1bd4e88c2a6cb62dULL, 99, 16, 83, 0, 6},
    {"Rob. Cross 5x5", false, 0xa156cefe8a5c3877ULL, 99, 54, 45, 0, 2},
    {"Mat. Mul. 3x3", false, 0xcd125307f5135001ULL, 99, 35, 64, 0, 4},
    {"Mat. Mul. 4x4", false, 0x5ba12876bf875765ULL, 99, 75, 24, 0, 2},
    {"Mat. Mul. 5x5", false, 0x7005be5e30cca6edULL, 99, 16, 83, 0, 6},
    {"Max 3", false, 0x4bd7a317074c5b63ULL, 99, 54, 45, 0, 0},
    {"Max 4", false, 0x6caec8be1a3b2477ULL, 99, 31, 68, 0, 0},
    {"Max 5", false, 0x50a8bb23818326ddULL, 99, 8, 91, 0, 0},
    {"Sort 3", false, 0x166a34cb08351877ULL, 99, 0, 99, 0, 2},
    {"Sort 4", false, 0x01de0d39d8967afdULL, 99, 0, 99, 0, 3},
    {"Dot Product 4", true, 0xa369df03c84d65a1ULL, 99, 48, 51, 1, 2},
    {"Hamm. Dist. 4", true, 0x1a9b8d7423cbf761ULL, 99, 37, 62, 1, 2},
    {"L2 Distance 4", true, 0xd1b0aed096c264a1ULL, 99, 48, 51, 1, 2},
    {"Linear Reg. 4", true, 0x62f84638e79a1fa7ULL, 99, 36, 63, 2, 0},
    {"Poly. Reg. 4", true, 0xacc425da1a7b98c1ULL, 99, 53, 46, 0, 0},
    {"Dot Product 8", true, 0xd89904d1de44632dULL, 99, 47, 52, 1, 3},
    {"Hamm. Dist. 8", true, 0xe0d7cdb0a8d749ddULL, 99, 59, 40, 0, 3},
    {"L2 Distance 8", true, 0x22def5eedf304c2dULL, 99, 47, 52, 1, 3},
    {"Linear Reg. 8", true, 0xa5b79f0007507967ULL, 99, 36, 63, 2, 0},
    {"Poly. Reg. 8", true, 0x48d70b9023d286bbULL, 99, 53, 46, 0, 0},
    {"Box Blur 3x3", true, 0x8beb0b5d98b8e035ULL, 99, 77, 22, 0, 3},
    {"Box Blur 4x4", true, 0xf04450f043a6ff65ULL, 99, 77, 22, 0, 3},
    {"Box Blur 5x5", true, 0x2347de6c995986b5ULL, 99, 17, 82, 0, 6},
    {"Gx 3x3", true, 0x1a2f2cc26433fbedULL, 99, 15, 84, 0, 6},
    {"Gy 3x3", true, 0xe7583907c17c1c2dULL, 99, 15, 84, 0, 6},
    {"Rob. Cross 3x3", true, 0xc46c8c5d10c61857ULL, 99, 55, 44, 0, 2},
    {"Gx 4x4", true, 0xfd41307a1584a7e5ULL, 99, 47, 52, 1, 3},
    {"Gy 4x4", true, 0xb775c26f55727ee5ULL, 99, 47, 52, 1, 3},
    {"Rob. Cross 4x4", true, 0x97b45abfdc2898c5ULL, 99, 49, 50, 1, 1},
    {"Gx 5x5", true, 0x68f61dd251dc06ddULL, 99, 16, 83, 0, 6},
    {"Gy 5x5", true, 0x1bd4e88c2a6cb62dULL, 99, 16, 83, 0, 6},
    {"Rob. Cross 5x5", true, 0xa156cefe8a5c3877ULL, 99, 54, 45, 0, 2},
    {"Mat. Mul. 3x3", true, 0xcd125307f5135001ULL, 99, 35, 64, 0, 4},
    {"Mat. Mul. 4x4", true, 0x5ba12876bf875765ULL, 99, 48, 51, 1, 2},
    {"Mat. Mul. 5x5", true, 0x7005be5e30cca6edULL, 99, 16, 83, 0, 6},
    {"Max 3", true, 0x4bd7a317074c5b63ULL, 99, 54, 45, 0, 0},
    {"Max 4", true, 0x6caec8be1a3b2477ULL, 99, 31, 68, 0, 0},
    {"Max 5", true, 0x50a8bb23818326ddULL, 99, 8, 91, 0, 0},
    {"Sort 3", true, 0x166a34cb08351877ULL, 99, 0, 99, 0, 2},
    {"Sort 4", true, 0x01de0d39d8967afdULL, 99, 0, 99, 0, 3},
};

constexpr RowGolden kRowGoldens[] = {
    {"Dot Product 4", false, 8, {0xa369df03c84d65a1ULL, 0x445d93ec3da3a969ULL, 0xbb4bbbb1560781c1ULL}, 75},
    {"Hamm. Dist. 4", false, 8, {0x1a9b8d7423cbf761ULL, 0x95a057ad8c547239ULL, 0x7668115c8ebc46c1ULL}, 59},
    {"L2 Distance 4", false, 8, {0xd1b0aed096c264a1ULL, 0xf7c7971728ad39a1ULL, 0x92899060ca30bc21ULL}, 74},
    {"Linear Reg. 4", false, 4, {0x62f84638e79a1fa7ULL, 0x4d6b702e6a4901c8ULL, 0x4015d12ae2c2c1b5ULL}, 76},
    {"Poly. Reg. 4", false, 4, {0xacc425da1a7b98c1ULL, 0x51d652f062ee449aULL, 0xdb239e7f36f8211bULL}, 53},
    {"Dot Product 8", false, 16, {0xd89904d1de44632dULL, 0xbf11a347baf3c5fdULL, 0xb7cd45cfadc04badULL}, 75},
    {"Hamm. Dist. 8", false, 16, {0xe0d7cdb0a8d749ddULL, 0xe343d071db5a196dULL, 0x6b23edb779a7826dULL}, 59},
    {"L2 Distance 8", false, 16, {0x22def5eedf304c2dULL, 0x4b7f963165bafdadULL, 0x7f0ed6c501e61f2dULL}, 74},
    {"Linear Reg. 8", false, 8, {0xa5b79f0007507967ULL, 0x18a1281bb4b64d5dULL, 0x5d6c6c10467fa329ULL}, 76},
    {"Poly. Reg. 8", false, 8, {0x48d70b9023d286bbULL, 0x57720eed121f8df4ULL, 0x6200e9a4744f4752ULL}, 53},
    {"Box Blur 3x3", false, 32, {0x8beb0b5d98b8e035ULL, 0xaccba9f687b89235ULL, 0x5060cbd02afcac35ULL}, 77},
    {"Box Blur 4x4", false, 128, {0xf04450f043a6ff65ULL, 0xa0123cf07b711765ULL, 0x42ac37d02ef0dd65ULL}, 77},
    {"Rob. Cross 3x3", false, 32, {0xc46c8c5d10c61857ULL, 0xc02e5dc710e99e17ULL, 0xb90a5e7a98f96a97ULL}, 56},
    {"Rob. Cross 4x4", false, 64, {0x97b45abfdc2898c5ULL, 0xc88035f7331b0b85ULL, 0x984127fec839d405ULL}, 74},
    {"Rob. Cross 5x5", false, 128, {0xa156cefe8a5c3877ULL, 0x636619e98b087137ULL, 0x7b71cacfbda6df17ULL}, 55},
    {"Mat. Mul. 3x3", false, 64, {0xcd125307f5135001ULL, 0xd139ec3d48509d41ULL, 0xe96a423a05f68111ULL}, 38},
    {"Mat. Mul. 4x4", false, 128, {0x5ba12876bf875765ULL, 0xc12d3cb498eaa365ULL, 0xf7e575bc4fe408a5ULL}, 75},
    {"Max 3", false, 1, {0x4bd7a317074c5b63ULL, 0x9a20c0986e364d95ULL, 0x65cd629f4cc55047ULL}, 54},
    {"Max 4", false, 1, {0x6caec8be1a3b2477ULL, 0x05aa7239996e3478ULL, 0x91be41296be46786ULL}, 30},
    {"Max 5", false, 1, {0x50a8bb23818326ddULL, 0x99e6d94c3cb885f0ULL, 0xa3297491f3bef136ULL}, 6},
    {"Sort 3", false, 4, {0x9c3b7f8d373f1991ULL, 0x700f89217dd1f1bfULL, 0xc97880dc76de209fULL}, 0},
    {"Sort 4", false, 4, {0x36663826eade81bbULL, 0x65891019ed8ecb87ULL, 0x697c9998d3b617daULL}, 0},
    {"Dot Product 4", true, 8, {0xa369df03c84d65a1ULL, 0x445d93ec3da3a969ULL, 0xbb4bbbb1560781c1ULL}, 48},
    {"Hamm. Dist. 4", true, 8, {0x1a9b8d7423cbf761ULL, 0x95a057ad8c547239ULL, 0x7668115c8ebc46c1ULL}, 37},
    {"L2 Distance 4", true, 8, {0xd1b0aed096c264a1ULL, 0xf7c7971728ad39a1ULL, 0x92899060ca30bc21ULL}, 48},
    {"Linear Reg. 4", true, 4, {0x62f84638e79a1fa7ULL, 0x4d6b702e6a4901c8ULL, 0x4015d12ae2c2c1b5ULL}, 36},
    {"Poly. Reg. 4", true, 4, {0xacc425da1a7b98c1ULL, 0x51d652f062ee449aULL, 0xdb239e7f36f8211bULL}, 53},
    {"Dot Product 8", true, 16, {0xd89904d1de44632dULL, 0xbf11a347baf3c5fdULL, 0xb7cd45cfadc04badULL}, 47},
    {"Hamm. Dist. 8", true, 16, {0xe0d7cdb0a8d749ddULL, 0xe343d071db5a196dULL, 0x6b23edb779a7826dULL}, 59},
    {"L2 Distance 8", true, 16, {0x22def5eedf304c2dULL, 0x4b7f963165bafdadULL, 0x7f0ed6c501e61f2dULL}, 47},
    {"Linear Reg. 8", true, 8, {0xa5b79f0007507967ULL, 0x18a1281bb4b64d5dULL, 0x5d6c6c10467fa329ULL}, 36},
    {"Poly. Reg. 8", true, 8, {0x48d70b9023d286bbULL, 0x57720eed121f8df4ULL, 0x6200e9a4744f4752ULL}, 53},
    {"Box Blur 3x3", true, 32, {0x8beb0b5d98b8e035ULL, 0xaccba9f687b89235ULL, 0x5060cbd02afcac35ULL}, 77},
    {"Box Blur 4x4", true, 128, {0xf04450f043a6ff65ULL, 0xa0123cf07b711765ULL, 0x42ac37d02ef0dd65ULL}, 77},
    {"Rob. Cross 3x3", true, 32, {0xc46c8c5d10c61857ULL, 0xc02e5dc710e99e17ULL, 0xb90a5e7a98f96a97ULL}, 56},
    {"Rob. Cross 4x4", true, 64, {0x97b45abfdc2898c5ULL, 0xc88035f7331b0b85ULL, 0x984127fec839d405ULL}, 49},
    {"Rob. Cross 5x5", true, 128, {0xa156cefe8a5c3877ULL, 0x636619e98b087137ULL, 0x7b71cacfbda6df17ULL}, 55},
    {"Mat. Mul. 3x3", true, 64, {0xcd125307f5135001ULL, 0xd139ec3d48509d41ULL, 0xe96a423a05f68111ULL}, 38},
    {"Mat. Mul. 4x4", true, 128, {0x5ba12876bf875765ULL, 0xc12d3cb498eaa365ULL, 0xf7e575bc4fe408a5ULL}, 48},
    {"Max 3", true, 1, {0x4bd7a317074c5b63ULL, 0x9a20c0986e364d95ULL, 0x65cd629f4cc55047ULL}, 54},
    {"Max 4", true, 1, {0x6caec8be1a3b2477ULL, 0x05aa7239996e3478ULL, 0x91be41296be46786ULL}, 30},
    {"Max 5", true, 1, {0x50a8bb23818326ddULL, 0x99e6d94c3cb885f0ULL, 0xa3297491f3bef136ULL}, 6},
    {"Sort 3", true, 4, {0x9c3b7f8d373f1991ULL, 0x700f89217dd1f1bfULL, 0xc97880dc76de209fULL}, 0},
    {"Sort 4", true, 4, {0x36663826eade81bbULL, 0x65891019ed8ecb87ULL, 0x697c9998d3b617daULL}, 0},
};
// clang-format on

struct RowOutcome
{
    std::vector<std::vector<std::int64_t>> lane_outputs;
    int final_budget = 0;
};

RowOutcome
runRow(FheRuntime& runtime, const FheProgram& program,
       const RotationKeyPlan& plan, int stride,
       const std::vector<ir::Env>& envs)
{
    std::vector<const ir::Env*> lanes;
    for (const ir::Env& env : envs) lanes.push_back(&env);
    const RowResult row = runtime.execute(
        program, plan, programRow(program, std::move(lanes), stride));
    return {row.member_outputs.front(), row.shared.final_noise_budget};
}

TEST(RuntimeGoldenTest, SuiteAccountingMatchesRecordedValues)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const CompilerDriver driver(&ruleset);
    std::vector<benchsuite::Kernel> kernels = benchsuite::porcupineSuite(8);
    for (benchsuite::Kernel& kernel : benchsuite::coyoteSuite()) {
        kernels.push_back(std::move(kernel));
    }
    FheRuntime runtime(goldenParams());
    // Cache the fresh budget before any reseed, as pooled runtimes do,
    // so every row below depends only on its own kernel and seed.
    runtime.scheme().freshNoiseBudget();

    int runs_checked = 0;
    int rows_checked = 0;
    for (const bool mod_switch : {false, true}) {
        DriverConfig pipeline = DriverConfig::greedy();
        if (mod_switch) pipeline.passes.push_back("mod-switch");
        for (const benchsuite::Kernel& kernel : kernels) {
            const Compiled compiled = driver.compile(kernel.program, pipeline);
            const FheProgram& program = compiled.program;
            const ir::Env env = benchsuite::syntheticInputs(kernel.program);

            runtime.scheme().reseedRandomness(kGoldenSeed);
            const RunResult run = runtime.run(program, env);
            const std::uint64_t hash = hashOutput(run.output);
            const RunGolden* run_golden = nullptr;
            for (const RunGolden& golden : kRunGoldens) {
                if (kernel.name == golden.kernel &&
                    golden.mod_switch == mod_switch) {
                    run_golden = &golden;
                }
            }
            char actual[256];
            std::snprintf(actual, sizeof actual,
                          "{\"%s\", %s, 0x%016llxULL, %d, %d, %d, %d, %d},",
                          kernel.name.c_str(), mod_switch ? "true" : "false",
                          static_cast<unsigned long long>(hash),
                          run.fresh_noise_budget, run.final_noise_budget,
                          run.consumed_noise, run.mod_switch_drops,
                          run.rotation_keys);
            if (run_golden == nullptr ||
                run_golden->output_hash != hash ||
                run_golden->fresh != run.fresh_noise_budget ||
                run_golden->final_budget != run.final_noise_budget ||
                run_golden->consumed != run.consumed_noise ||
                run_golden->drops != run.mod_switch_drops ||
                run_golden->rotation_keys != run.rotation_keys) {
                ADD_FAILURE() << "run golden mismatch, actual: " << actual;
            }
            ++runs_checked;

            const RotationKeyPlan plan = effectiveKeyPlan(program, 0);
            const service::LaneFit fit =
                service::analyzeLaneFit(program, plan, runtime.slots());
            if (!fit.safe || fit.max_lanes < 3) continue;
            std::vector<ir::Env> envs;
            for (int lane = 0; lane < 3; ++lane) {
                // Per-variable offsets, so a kernel of differences
                // (L2, Roberts cross) still sees distinct lanes.
                ir::Env lane_env = env;
                for (auto& [name, value] : lane_env) {
                    value += lane * (1 + (name.front() + name.back()) % 5);
                }
                envs.push_back(std::move(lane_env));
            }
            runtime.scheme().reseedRandomness(kGoldenSeed);
            const RowOutcome row =
                runRow(runtime, program, plan, fit.stride, envs);
            ASSERT_EQ(row.lane_outputs.size(), 3u) << kernel.name;
            const RowGolden* row_golden = nullptr;
            for (const RowGolden& golden : kRowGoldens) {
                if (kernel.name == golden.kernel &&
                    golden.mod_switch == mod_switch) {
                    row_golden = &golden;
                }
            }
            std::uint64_t lane_hash[3];
            for (int lane = 0; lane < 3; ++lane) {
                lane_hash[lane] = hashOutput(
                    row.lane_outputs[static_cast<std::size_t>(lane)]);
            }
            std::snprintf(
                actual, sizeof actual,
                "{\"%s\", %s, %d, {0x%016llxULL, 0x%016llxULL, "
                "0x%016llxULL}, %d},",
                kernel.name.c_str(), mod_switch ? "true" : "false",
                fit.stride, static_cast<unsigned long long>(lane_hash[0]),
                static_cast<unsigned long long>(lane_hash[1]),
                static_cast<unsigned long long>(lane_hash[2]),
                row.final_budget);
            if (row_golden == nullptr || row_golden->stride != fit.stride ||
                row_golden->lane_hash[0] != lane_hash[0] ||
                row_golden->lane_hash[1] != lane_hash[1] ||
                row_golden->lane_hash[2] != lane_hash[2] ||
                row_golden->final_budget != row.final_budget) {
                ADD_FAILURE() << "row golden mismatch, actual: " << actual;
            }
            ++rows_checked;
        }
    }
    // Every recorded row was reproduced (none silently skipped).
    EXPECT_EQ(runs_checked, static_cast<int>(std::size(kRunGoldens)));
    EXPECT_EQ(rows_checked, static_cast<int>(std::size(kRowGoldens)));
}

} // namespace
} // namespace chehab::compiler
