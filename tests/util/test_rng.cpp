#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace qplacer {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, BelowIsUnbiasedish)
{
    Rng rng(11);
    int counts[5] = {0};
    for (int i = 0; i < 50000; ++i)
        ++counts[rng.below(5)];
    for (int c : counts) {
        EXPECT_GT(c, 9000);
        EXPECT_LT(c, 11000);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BelowZeroPanics)
{
    Rng rng(1);
    EXPECT_THROW(rng.below(0), std::logic_error);
}

} // namespace
} // namespace qplacer
