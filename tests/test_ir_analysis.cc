/// \file
/// Tests for typing, depth metrics and operation counting — the Table 6
/// circuit statistics.
#include <gtest/gtest.h>

#include "ir/analysis.h"
#include "ir/parser.h"
#include "support/error.h"

namespace chehab::ir {
namespace {

TEST(TypeTest, ScalarAndVector)
{
    EXPECT_FALSE(typeOf(parse("(+ a b)")).is_vector);
    const TypeInfo t = typeOf(parse("(Vec a b c)"));
    EXPECT_TRUE(t.is_vector);
    EXPECT_EQ(t.width, 3);
}

TEST(TypeTest, PlainnessPropagates)
{
    EXPECT_TRUE(typeOf(parse("(* (pt a) 3)")).is_plain);
    EXPECT_FALSE(typeOf(parse("(* (pt a) x)")).is_plain);
}

TEST(TypeTest, RejectsShapeErrors)
{
    EXPECT_THROW(typeOf(parse("(+ (Vec a b) c)")), CompileError);
    EXPECT_THROW(typeOf(parse("(VecAdd a b)")), CompileError);
    EXPECT_THROW(typeOf(parse("(VecAdd (Vec a b) (Vec c d e))")),
                 CompileError);
    EXPECT_THROW(typeOf(parse("(Vec (Vec a b) c)")), CompileError);
    EXPECT_THROW(typeOf(parse("(<< a 1)")), CompileError);
}

TEST(TypeTest, WellTypedAgreesWithTypeOf)
{
    for (const char* text :
         {"(+ (Vec a b) c)", "(VecAdd a b)", "(VecAdd (Vec a b) (Vec c d e))",
          "(Vec (Vec a b) c)", "(<< a 1)", "(- (Vec a b))",
          "(VecNeg a)"}) {
        EXPECT_FALSE(wellTyped(parse(text))) << text;
    }
    EXPECT_TRUE(wellTyped(parse("(VecMul (<< (Vec a b) 1) (Vec (pt w) 2))")));
}

TEST(TypeTest, ReportsFirstViolationInChildOrder)
{
    // A Vec rejects a vector element before typing the elements after
    // it; other operators type every operand first.
    try {
        typeOf(parse("(Vec (Vec a b) (+ (Vec c d) e))"));
        FAIL() << "ill-typed program accepted";
    } catch (const CompileError& error) {
        EXPECT_STREQ(error.what(), "nested vector inside Vec constructor");
    }
    try {
        typeOf(parse("(VecAdd (Vec a b) (VecAdd (Vec c d) (Vec e f g)))"));
        FAIL() << "ill-typed program accepted";
    } catch (const CompileError& error) {
        EXPECT_STREQ(error.what(), "vector width mismatch: 2 vs 3");
    }
}

TEST(TypeTest, RejectsWrongArity)
{
    // Only hand-built (or deserialized) nodes can carry the wrong
    // operand count; the parser rejects them.
    const ExprPtr unary_add = makeNode(Op::Add, {var("a")}, {}, 0, 0);
    EXPECT_THROW(typeOf(unary_add), CompileError);
    EXPECT_FALSE(wellTyped(unary_add));
    EXPECT_EQ(multiplicativeDepth(makeNode(Op::Mul, {var("a")}, {}, 0, 0)),
              0);
}

TEST(TypeTest, RotatePreservesWidth)
{
    const TypeInfo t = typeOf(parse("(<< (Vec a b c d) 2)"));
    EXPECT_TRUE(t.is_vector);
    EXPECT_EQ(t.width, 4);
}

TEST(DepthTest, CircuitDepth)
{
    EXPECT_EQ(circuitDepth(parse("x")), 0);
    EXPECT_EQ(circuitDepth(parse("(+ a b)")), 1);
    EXPECT_EQ(circuitDepth(parse("(+ (+ a b) (+ c d))")), 2);
    EXPECT_EQ(circuitDepth(parse("(+ (+ (+ a b) c) d)")), 3);
    // Vec constructors are free.
    EXPECT_EQ(circuitDepth(parse("(VecAdd (Vec a b) (Vec c d))")), 1);
    // Rotations are compute ops.
    EXPECT_EQ(circuitDepth(parse("(<< (VecAdd (Vec a b) (Vec c d)) 1)")), 2);
}

TEST(DepthTest, PlainSubtreesAreFree)
{
    // The plaintext product is computed before encryption.
    EXPECT_EQ(circuitDepth(parse("(* (* (pt a) (pt b)) x)")), 1);
}

TEST(DepthTest, MultiplicativeDepthCountsCtCtOnly)
{
    EXPECT_EQ(multiplicativeDepth(parse("(* a b)")), 1);
    EXPECT_EQ(multiplicativeDepth(parse("(* (* a b) (* c d))")), 2);
    EXPECT_EQ(multiplicativeDepth(parse("(+ (* a b) c)")), 1);
    // ct-pt multiplications do not raise multiplicative depth.
    EXPECT_EQ(multiplicativeDepth(parse("(* (pt w) (* a b))")), 1);
    EXPECT_EQ(multiplicativeDepth(parse("(+ a b)")), 0);
}

TEST(DepthTest, MotivatingExampleDepths)
{
    const ExprPtr e = parse(
        "(* (+ (* (* v1 v2) (* v3 v4)) (* (* v3 v4) (* v5 v6)))"
        "   (* (* v7 v8) (* v9 v10)))");
    EXPECT_EQ(multiplicativeDepth(e), 3);
    EXPECT_EQ(circuitDepth(e), 4);
}

TEST(OpCountTest, ScalarClassification)
{
    const OpCounts c = countOps(parse("(+ (* a b) (* (pt w) c))"));
    EXPECT_EQ(c.ct_add, 1);
    EXPECT_EQ(c.ct_ct_mul, 1);
    EXPECT_EQ(c.ct_pt_mul, 1);
    EXPECT_EQ(c.scalar_ops, 3);
    EXPECT_EQ(c.vector_ops, 0);
}

TEST(OpCountTest, SquareDetection)
{
    const OpCounts c = countOps(parse("(* (- a b) (- a b))"));
    EXPECT_EQ(c.square, 1);
    EXPECT_EQ(c.ct_ct_mul, 0);
    // The two structurally identical subtrahends count once (CSE).
    EXPECT_EQ(c.ct_add, 1);
}

TEST(OpCountTest, DagUniqueCounting)
{
    // (* v3 v4) appears twice; DAG counting sees it once.
    const ExprPtr e = parse("(+ (* (* v1 v2) (* v3 v4)) (* (* v3 v4) v5))");
    EXPECT_EQ(countOps(e, true).ct_ct_mul, 4);
    EXPECT_EQ(countOps(e, false).ct_ct_mul, 5);
}

TEST(OpCountTest, VectorOps)
{
    const OpCounts c = countOps(
        parse("(VecAdd (VecMul (Vec a b) (Vec c d)) (<< (Vec e f) 1))"));
    EXPECT_EQ(c.ct_add, 1);
    EXPECT_EQ(c.ct_ct_mul, 1);
    EXPECT_EQ(c.rotation, 1);
    EXPECT_EQ(c.vector_ops, 3);
    EXPECT_EQ(c.scalar_ops, 0);
}

TEST(OpCountTest, PlainOpsAreSeparate)
{
    const OpCounts c = countOps(parse("(* (+ (pt a) (pt b)) x)"));
    EXPECT_EQ(c.plain_ops, 1);
    EXPECT_EQ(c.ct_pt_mul, 1);
    EXPECT_EQ(c.total(), 1);
}

TEST(VarsTest, CollectionOrderAndKinds)
{
    const ExprPtr e = parse("(+ (* a (pt w)) (- b a))");
    EXPECT_EQ(ciphertextVars(e), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(plaintextVars(e), (std::vector<std::string>{"w"}));
}

TEST(VarsTest, RotationSteps)
{
    const ExprPtr e =
        parse("(VecAdd (<< (Vec a b c d) 3) (<< (Vec a b c d) 1))");
    EXPECT_EQ(rotationSteps(e), (std::vector<int>{1, 3}));
}

TEST(WidthTest, OutputWidth)
{
    EXPECT_EQ(outputWidth(parse("(+ a b)")), 1);
    EXPECT_EQ(outputWidth(parse("(Vec a b c d)")), 4);
}

} // namespace
} // namespace chehab::ir
