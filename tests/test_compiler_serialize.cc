/// \file
/// Round-trip tests for the compiled-artifact serializer
/// (compiler/serialize.h), the encoding under the service's on-disk
/// persistence tier. The contract under test: deserialize(serialize(x))
/// reproduces x exactly — same IR (by structural equality *and*
/// fingerprint), same disassembled program, same key plan, same stats —
/// and the *content* section is byte-deterministic, so two compiles of
/// the same key serialize to identical bytes. Malformed payloads must
/// throw std::runtime_error, never crash or return a wrong artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "compiler/keyselect.h"
#include "compiler/pipeline.h"
#include "compiler/serialize.h"
#include "ir/expr.h"
#include "ir/parser.h"
#include "trs/ruleset.h"

namespace chehab::compiler {
namespace {

std::string
dotSource(int n)
{
    std::string sum;
    for (int i = 0; i < n; ++i) {
        const std::string term = "(* a" + std::to_string(i) + " b" +
                                 std::to_string(i) + ")";
        sum = i == 0 ? term : "(+ " + sum + " " + term + ")";
    }
    return sum;
}

void
expectSameCompiled(const Compiled& a, const Compiled& b)
{
    ASSERT_NE(a.optimized, nullptr);
    ASSERT_NE(b.optimized, nullptr);
    EXPECT_TRUE(ir::equal(a.optimized, b.optimized));
    EXPECT_EQ(ir::fingerprint(a.optimized), ir::fingerprint(b.optimized));
    EXPECT_EQ(a.program.disassemble(), b.program.disassemble());
    EXPECT_EQ(a.program.num_regs, b.program.num_regs);
    EXPECT_EQ(a.program.output_reg, b.program.output_reg);
    EXPECT_EQ(a.program.output_width, b.program.output_width);
    EXPECT_EQ(a.program.mod_switch.points, b.program.mod_switch.points);
    EXPECT_EQ(a.program.mod_switch.margin_bits,
              b.program.mod_switch.margin_bits);
    EXPECT_EQ(a.program.mod_switch.min_level,
              b.program.mod_switch.min_level);
    EXPECT_EQ(a.key_planned, b.key_planned);
    EXPECT_EQ(a.key_plan.keys, b.key_plan.keys);
    EXPECT_EQ(a.key_plan.decomposition, b.key_plan.decomposition);
    EXPECT_DOUBLE_EQ(a.stats.initial_cost, b.stats.initial_cost);
    EXPECT_DOUBLE_EQ(a.stats.final_cost, b.stats.final_cost);
    EXPECT_EQ(a.stats.circuit_depth, b.stats.circuit_depth);
    EXPECT_EQ(a.stats.mult_depth, b.stats.mult_depth);
    EXPECT_EQ(a.stats.rewrite_steps, b.stats.rewrite_steps);
    EXPECT_EQ(a.stats.ir_counts.rotation, b.stats.ir_counts.rotation);
    EXPECT_EQ(a.stats.ir_counts.ct_ct_mul, b.stats.ir_counts.ct_ct_mul);
    ASSERT_EQ(a.stats.passes.size(), b.stats.passes.size());
    for (std::size_t i = 0; i < a.stats.passes.size(); ++i) {
        EXPECT_EQ(a.stats.passes[i].name, b.stats.passes[i].name);
        EXPECT_DOUBLE_EQ(a.stats.passes[i].seconds,
                         b.stats.passes[i].seconds);
        EXPECT_DOUBLE_EQ(a.stats.passes[i].cost_after,
                         b.stats.passes[i].cost_after);
        EXPECT_EQ(a.stats.passes[i].rewrite_steps,
                  b.stats.passes[i].rewrite_steps);
    }
}

TEST(CompilerSerializeTest, GreedyArtifactRoundTrips)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const Compiled original =
        compileGreedy(ruleset, ir::parse(dotSource(8)));
    const std::string bytes = serializeCompiled(original);
    const Compiled restored = deserializeCompiled(bytes);
    expectSameCompiled(original, restored);
}

TEST(CompilerSerializeTest, NoOptVectorArtifactRoundTrips)
{
    // Vector kernel with rotations: exercises Vec slots, Rotate steps
    // and a non-trivial key plan.
    const Compiled original = compileNoOpt(
        ir::parse("(VecMul (<< (Vec a b c d) 1) (Vec e f g h))"));
    const Compiled restored =
        deserializeCompiled(serializeCompiled(original));
    expectSameCompiled(original, restored);
}

TEST(CompilerSerializeTest, KeyPlanWithDecompositionRoundTrips)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    Compiled original = compileGreedy(ruleset, ir::parse(dotSource(4)));
    // Force a decomposed plan (tight budget over many distinct steps)
    // so the sorted-map encoding is actually exercised.
    original.key_plan = selectRotationKeys({1, 2, 3, 5, 7, 11, 13}, 3);
    original.key_planned = true;
    ASSERT_FALSE(original.key_plan.decomposition.empty());
    const Compiled restored =
        deserializeCompiled(serializeCompiled(original));
    expectSameCompiled(original, restored);
}

TEST(CompilerSerializeTest, ContentBytesAreDeterministicAcrossCompiles)
{
    // Two independent compiles of the same key must serialize to
    // byte-identical *content* — this is the cross-process extension
    // of the determinism contract, and the reason a warm-loaded
    // artifact is indistinguishable from a fresh compile. Full
    // serializations differ only in the stats section (wall timings).
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const ir::ExprPtr source = ir::parse(dotSource(8));
    const Compiled first = compileGreedy(ruleset, source);
    const Compiled second = compileGreedy(ruleset, source);
    EXPECT_EQ(serializeCompiledContent(first),
              serializeCompiledContent(second));
    // And round-tripping preserves the content bytes exactly.
    const Compiled restored =
        deserializeCompiled(serializeCompiled(first));
    EXPECT_EQ(serializeCompiledContent(first),
              serializeCompiledContent(restored));
}

TEST(CompilerSerializeTest, MalformedBytesThrowInsteadOfCrashing)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const Compiled compiled =
        compileGreedy(ruleset, ir::parse(dotSource(4)));
    const std::string bytes = serializeCompiled(compiled);

    EXPECT_THROW(deserializeCompiled(std::string()), std::runtime_error);
    EXPECT_THROW(deserializeCompiled("garbage"), std::runtime_error);
    // Every strict prefix is a truncation; check a sweep of cut points
    // (cheap, and catches any field read without a bounds check).
    for (std::size_t cut : {std::size_t{1}, std::size_t{4},
                            bytes.size() / 4, bytes.size() / 2,
                            bytes.size() - 1}) {
        EXPECT_THROW(deserializeCompiled(bytes.substr(0, cut)),
                     std::runtime_error)
            << "cut=" << cut;
    }
    // Trailing junk is rejected too — the payload must be exact.
    EXPECT_THROW(deserializeCompiled(bytes + "x"), std::runtime_error);

    // The scheduler allocates one register per instruction, so a
    // register count outside [0, instructions] is corrupt: tables sized
    // by it would ask for gigabytes.
    const int instrs = static_cast<int>(compiled.program.instrs.size());
    for (const int num_regs :
         {-1, instrs + 1, std::numeric_limits<std::int32_t>::max()}) {
        Compiled tampered = compiled;
        tampered.program.num_regs = num_regs;
        EXPECT_THROW(deserializeCompiled(serializeCompiled(tampered)),
                     std::runtime_error)
            << "num_regs " << num_regs;
    }
    Compiled full = compiled;
    full.program.num_regs = instrs;
    EXPECT_EQ(deserializeCompiled(serializeCompiled(full)).program.num_regs,
              instrs);
}

TEST(CompilerSerializeTest, CorruptedOpTagsThrow)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const std::string bytes =
        serializeCompiled(compileGreedy(ruleset, ir::parse(dotSource(4))));
    // Flip every byte in turn to an invalid-ish value; any outcome is
    // acceptable except a crash or an artifact that silently decodes
    // from different bytes AND serializes back to the original. (Many
    // flips land in string payloads and legitimately decode; the point
    // of the sweep is that none of them aborts the process.)
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x7f);
        try {
            const Compiled decoded = deserializeCompiled(mutated);
            (void)decoded;
        } catch (const std::runtime_error&) {
            // Expected for most flips.
        }
    }
    SUCCEED();
}

} // namespace
} // namespace chehab::compiler
