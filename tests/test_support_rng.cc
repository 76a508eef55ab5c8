/// \file
/// Rng: reseeding restarts every stream, the Box-Muller spare included.
#include <gtest/gtest.h>

#include "support/rng.h"

namespace chehab {
namespace {

TEST(RngTest, ReseedDropsPendingNormalSpare)
{
    // One normal() draws a Box-Muller pair and keeps the second value
    // for the next call; reseeding must drop it, so the next draw is
    // the new seed's first, as from a freshly built Rng.
    Rng fresh(42);
    const double want_first = fresh.normal();
    const double want_second = fresh.normal();

    Rng reseeded(1);
    reseeded.normal();
    reseeded.reseed(42);
    EXPECT_EQ(reseeded.normal(), want_first);
    EXPECT_EQ(reseeded.normal(), want_second);
}

TEST(RngTest, ReseedMatchesFreshGeneratorOnEveryDraw)
{
    for (int normals = 0; normals < 3; ++normals) {
        Rng fresh(7);
        Rng reseeded(3);
        for (int i = 0; i < normals; ++i) reseeded.normal();
        reseeded.uniformInt(1000);
        reseeded.reseed(7);
        for (int i = 0; i < 5; ++i) {
            EXPECT_EQ(reseeded.normal(), fresh.normal()) << normals;
            EXPECT_EQ(reseeded.next(), fresh.next()) << normals;
        }
    }
}

} // namespace
} // namespace chehab
