/// \file
/// Behavioural tests for the CHEHAB rule set: individual rule firing,
/// location-indexed application, the motivating example of §2, and the
/// composite rotation rules of Appendix E.
#include <gtest/gtest.h>

#include <limits>

#include "ir/analysis.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "trs/ruleset.h"

namespace chehab::trs {
namespace {

using ir::equal;
using ir::ExprPtr;
using ir::parse;

class RulesetTest : public ::testing::Test
{
  protected:
    static const Ruleset&
    ruleset()
    {
        static const Ruleset rs = buildChehabRuleset();
        return rs;
    }

    static const RewriteRule&
    rule(const std::string& name)
    {
        const int index = ruleset().indexOf(name);
        EXPECT_GE(index, 0) << "unknown rule " << name;
        return ruleset()[static_cast<std::size_t>(index)];
    }

    /// Apply a named rule at its first match and return the result text.
    static std::string
    apply(const std::string& rule_name, const std::string& program)
    {
        const ExprPtr result = rule(rule_name).applyAt(parse(program), 0);
        return result ? result->toString() : "<no match>";
    }
};

TEST_F(RulesetTest, HasExactly84Rules)
{
    EXPECT_EQ(ruleset().size(), 84u);
}

TEST_F(RulesetTest, RuleNamesUnique)
{
    for (std::size_t i = 0; i < ruleset().size(); ++i) {
        EXPECT_EQ(ruleset().indexOf(ruleset()[i].name()),
                  static_cast<int>(i));
    }
}

TEST_F(RulesetTest, Commutativity)
{
    EXPECT_EQ(apply("mul-comm", "(* a b)"), "(* b a)");
    EXPECT_EQ(apply("add-comm", "(+ a b)"), "(+ b a)");
}

TEST_F(RulesetTest, Factorization)
{
    EXPECT_EQ(apply("comm-factor-ll", "(+ (* a b) (* a c))"),
              "(* a (+ b c))");
    EXPECT_EQ(apply("comm-factor-rr", "(+ (* b a) (* c a))"),
              "(* (+ b c) a)");
    EXPECT_EQ(apply("sub-factor", "(- (* a b) (* a c))"), "(* a (- b c))");
}

TEST_F(RulesetTest, Identities)
{
    EXPECT_EQ(apply("add-identity-r", "(+ x 0)"), "x");
    EXPECT_EQ(apply("mul-identity-r", "(* x 1)"), "x");
    EXPECT_EQ(apply("mul-zero-r", "(* x 0)"), "0");
    EXPECT_EQ(apply("sub-self", "(- x x)"), "0");
    EXPECT_EQ(apply("neg-neg", "(- (- x))"), "x");
}

TEST_F(RulesetTest, ConstFold)
{
    EXPECT_EQ(apply("const-fold", "(+ 3 4)"), "7");
    EXPECT_EQ(apply("const-fold", "(* 3 4)"), "12");
    EXPECT_EQ(apply("const-fold", "(- 5)"), "-5");
    EXPECT_EQ(apply("const-fold", "(+ x 4)"), "<no match>");
}

TEST_F(RulesetTest, PlaintextConsolidation)
{
    EXPECT_EQ(apply("pt-consolidate-mul", "(* (pt a) (* (pt b) x))"),
              "(* (* (pt a) (pt b)) x)");
    // All-plain expressions are vetoed by the guard.
    EXPECT_EQ(apply("pt-consolidate-mul", "(* (pt a) (* (pt b) (pt c)))"),
              "<no match>");
}

TEST_F(RulesetTest, IsomorphicVectorization)
{
    EXPECT_EQ(apply("add-vectorize-2", "(Vec (+ a b) (+ c d))"),
              "(VecAdd (Vec a c) (Vec b d))");
    EXPECT_EQ(apply("mul-vectorize-2", "(Vec (* a b) (* c d))"),
              "(VecMul (Vec a c) (Vec b d))");
    EXPECT_EQ(apply("sub-vectorize-3", "(Vec (- a b) (- c d) (- e f))"),
              "(VecSub (Vec a c e) (Vec b d f))");
    EXPECT_EQ(apply("neg-vectorize-2", "(Vec (- a) (- b))"),
              "(VecNeg (Vec a b))");
}

TEST_F(RulesetTest, NonIsomorphicPacking)
{
    // The Appendix E example: mixed * and - children.
    EXPECT_EQ(apply("pack-mul", "(Vec (* a b) (* c d) (- f g))"),
              "(VecMul (Vec a c (- f g)) (Vec b d 1))");
    EXPECT_EQ(apply("pack-add", "(Vec (+ a b) x (+ c d))"),
              "(VecAdd (Vec a x c) (Vec b 0 d))");
    // Fewer than two matching children: no match.
    EXPECT_EQ(apply("pack-mul", "(Vec (* a b) (+ c d))"), "<no match>");
}

TEST_F(RulesetTest, PackNegMixedUsesMask)
{
    EXPECT_EQ(apply("pack-neg", "(Vec (- a) b (- c))"),
              "(VecMul (Vec a b c) (Vec -1 1 -1))");
}

TEST_F(RulesetTest, RotationAlgebra)
{
    EXPECT_EQ(apply("rotate-compose", "(<< (<< (Vec a b c d) 1) 2)"),
              "(<< (Vec a b c d) 3)");
    EXPECT_EQ(apply("rotate-zero", "(<< (Vec a b) 0)"), "(Vec a b)");
    EXPECT_EQ(apply("rotate-hoist-add",
                    "(VecAdd (<< (Vec a b) 1) (<< (Vec c d) 1))"),
              "(<< (VecAdd (Vec a b) (Vec c d)) 1)");
    // Different steps: hoisting is not valid.
    EXPECT_EQ(apply("rotate-hoist-add",
                    "(VecAdd (<< (Vec a b) 1) (<< (Vec c d) 2))"),
              "<no match>");
}

TEST_F(RulesetTest, RotateOfVecFoldsIntoPacking)
{
    EXPECT_EQ(apply("rotate-of-vec", "(<< (Vec a b c) 1)"), "(Vec b c a)");
    // Computed children cannot be relaid out for free.
    EXPECT_EQ(apply("rotate-of-vec", "(<< (Vec (+ a b) c d) 1)"),
              "<no match>");
}

TEST_F(RulesetTest, ReduceSumOfProductsBuildsRotateLadder)
{
    const ExprPtr program =
        parse("(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))");
    const ExprPtr result = rule("reduce-sum-of-products").applyAt(program, 0);
    ASSERT_NE(result, nullptr);
    const ir::OpCounts counts = ir::countOps(result);
    EXPECT_EQ(counts.ct_ct_mul, 1);   // One packed VecMul.
    EXPECT_EQ(counts.rotation, 2);    // log2(4) rotations.
    EXPECT_EQ(counts.ct_add, 2);
    EXPECT_TRUE(ir::equivalentOn(program, result, 8));
}

TEST_F(RulesetTest, ReduceRulesAreRootOnly)
{
    EXPECT_TRUE(rule("reduce-sum").rootOnly());
    EXPECT_TRUE(rule("reduce-sum-of-products").rootOnly());
    // Embedded in a larger expression, the widening rewrite must not fire.
    const ExprPtr program =
        parse("(* z (+ (* a b) (* c d)))");
    EXPECT_TRUE(rule("reduce-sum-of-products").findMatches(program).empty());
}

TEST_F(RulesetTest, VecReduceSumOfProductsInterleaves)
{
    // The Appendix E composite rule.
    const ExprPtr program =
        parse("(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))");
    const ExprPtr result =
        rule("vec-reduce-sum-of-products").applyAt(program, 0);
    ASSERT_NE(result, nullptr);
    const ir::OpCounts counts = ir::countOps(result);
    EXPECT_EQ(counts.ct_ct_mul, 1);
    EXPECT_EQ(counts.rotation, 1);
    EXPECT_EQ(counts.ct_add, 1);
    EXPECT_TRUE(ir::equivalentOn(program, result, 8));
}

TEST_F(RulesetTest, BalanceReducesDepth)
{
    const ExprPtr chain = parse("(* a (* b (* c (* d (* e f)))))");
    const ExprPtr balanced = rule("balance-mul").applyAt(chain, 0);
    ASSERT_NE(balanced, nullptr);
    EXPECT_LT(ir::multiplicativeDepth(balanced),
              ir::multiplicativeDepth(chain));
    EXPECT_TRUE(ir::equivalentOn(chain, balanced, 8));
    // Already balanced trees do not match (no infinite loop).
    EXPECT_EQ(rule("balance-mul").applyAt(balanced, 0), nullptr);
}

TEST_F(RulesetTest, DevectorizeInvertsPacking)
{
    EXPECT_EQ(apply("devectorize-add", "(VecAdd (Vec a c) (Vec b d))"),
              "(Vec (+ a b) (+ c d))");
}

TEST_F(RulesetTest, LocationOrdinalSelectsMatch)
{
    // Two independent factorization sites.
    const ExprPtr program = parse(
        "(Vec (+ (* a b) (* a c)) (+ (* x y) (* x z)))");
    const RewriteRule& r = rule("comm-factor-ll");
    const std::vector<int> matches = r.findMatches(program);
    ASSERT_EQ(matches.size(), 2u);
    const ExprPtr first = r.applyAt(program, 0);
    const ExprPtr second = r.applyAt(program, 1);
    EXPECT_EQ(first->toString(),
              "(Vec (* a (+ b c)) (+ (* x y) (* x z)))");
    EXPECT_EQ(second->toString(),
              "(Vec (+ (* a b) (* a c)) (* x (+ y z)))");
    // Out-of-range ordinal returns null.
    EXPECT_EQ(r.applyAt(program, 2), nullptr);
}

TEST_F(RulesetTest, NegativeOrdinalReturnsNull)
{
    // Negative ordinals name no match, on programs with and without one.
    const RewriteRule& r = rule("comm-factor-ll");
    EXPECT_EQ(r.applyAt(parse("(+ (* a b) (* a c))"), -1), nullptr);
    EXPECT_EQ(r.applyAt(parse("(+ a b)"), -1), nullptr);
    EXPECT_EQ(r.applyAt(parse("(+ (* a b) (* a c))"),
                        std::numeric_limits<int>::min()),
              nullptr);
    // So do ordinals far past the end (no ordinal + 1 overflow).
    EXPECT_EQ(r.applyAt(parse("(+ (* a b) (* a c))"),
                        std::numeric_limits<int>::max()),
              nullptr);
}

TEST_F(RulesetTest, MotivatingExampleSequence)
{
    // §2: apply R1 (mul commutativity) then R2 (comm factor) to Eq. 1 to
    // reach Eq. 2.
    const ExprPtr eq1 = parse(
        "(* (+ (* (* v1 v2) (* v3 v4)) (* (* v3 v4) (* v5 v6)))"
        "   (* (* v7 v8) (* v9 v10)))");
    // R1 at the first product of the left sum: (* (v1 v2) (v3 v4)) =>
    // (* (v3 v4) (v1 v2)).
    const RewriteRule& r1 = rule("mul-comm");
    const std::vector<int> locs = r1.findMatches(eq1);
    ASSERT_FALSE(locs.empty());
    // Find the ordinal whose site is exactly (* (* v1 v2) (* v3 v4)).
    int ordinal = -1;
    for (std::size_t i = 0; i < locs.size(); ++i) {
        if (ir::subtreeAt(eq1, locs[i])->toString() ==
            "(* (* v1 v2) (* v3 v4))") {
            ordinal = static_cast<int>(i);
        }
    }
    ASSERT_GE(ordinal, 0);
    const ExprPtr after_r1 = r1.applyAt(eq1, ordinal);
    const ExprPtr eq2 = rule("comm-factor-ll").applyAt(after_r1, 0);
    ASSERT_NE(eq2, nullptr);
    EXPECT_EQ(eq2->toString(),
              "(* (* (* v3 v4) (+ (* v1 v2) (* v5 v6)))"
              " (* (* v7 v8) (* v9 v10)))");
    EXPECT_TRUE(ir::equivalentOn(eq1, eq2, 8));
}

TEST_F(RulesetTest, VecMulIdentityVector)
{
    EXPECT_EQ(apply("vecmul-identity", "(VecMul (Vec a b) (Vec 1 1))"),
              "(Vec a b)");
    EXPECT_EQ(apply("vecadd-identity", "(VecAdd (Vec 0 0) (Vec a b))"),
              "(Vec a b)");
}

TEST_F(RulesetTest, CanonicalRotationExposesSharedPacking)
{
    const ExprPtr v = parse("(Vec c a b)");
    const ExprPtr result = rule("vec-canonical-rotation").applyAt(v, 0);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->op(), ir::Op::Rotate);
    EXPECT_TRUE(ir::equivalentOn(v, result, 8));
    // Already-canonical vectors do not match.
    const ExprPtr canonical = result->child(0);
    EXPECT_EQ(rule("vec-canonical-rotation").applyAt(canonical, 0), nullptr);
}

} // namespace
} // namespace chehab::trs
