#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "core/nesterov.hpp"
#include "oracles/oracles.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

TEST(Nesterov, MinimizesQuadraticBowl)
{
    // f = 0.5 * sum |p - target|^2; gradient = p - target.
    const Rect region(0, 0, 1000, 1000);
    const std::vector<Vec2> halves(3, Vec2(10, 10));
    NesterovOptimizer opt(region, halves);
    opt.reset({{100, 100}, {900, 100}, {500, 900}});
    const std::vector<Vec2> target{{400, 400}, {600, 400}, {500, 600}};

    for (int it = 0; it < 200; ++it) {
        std::vector<Vec2> grad(3);
        for (int i = 0; i < 3; ++i)
            grad[i] = opt.lookahead()[i] - target[i];
        opt.step(grad);
    }
    for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(opt.solution()[i].x, target[i].x, 1.0);
        EXPECT_NEAR(opt.solution()[i].y, target[i].y, 1.0);
    }
}

TEST(Nesterov, ClampsIntoRegion)
{
    const Rect region(0, 0, 100, 100);
    NesterovOptimizer opt(region, {{10, 10}});
    opt.reset({{500, -200}}); // way outside
    EXPECT_GE(opt.solution()[0].x, 10.0);
    EXPECT_LE(opt.solution()[0].x, 90.0);
    EXPECT_GE(opt.solution()[0].y, 10.0);

    // A huge gradient cannot push the solution out either.
    for (int it = 0; it < 5; ++it)
        opt.step({{-1e9, -1e9}});
    EXPECT_GE(opt.solution()[0].x, 10.0);
    EXPECT_LE(opt.solution()[0].y, 90.0);
}

TEST(Nesterov, StepLengthIsCapped)
{
    const Rect region(0, 0, 1000, 1000);
    NesterovOptimizer opt(region, {{1, 1}}, 0.01);
    opt.reset({{500, 500}});
    const Vec2 before = opt.solution()[0];
    opt.step({{1e12, 0}});
    const Vec2 after = opt.solution()[0];
    // Max step = 0.01 * diagonal ~ 14.1.
    EXPECT_LE(before.dist(after), 15.0);
}

TEST(Nesterov, ZeroGradientHolds)
{
    const Rect region(0, 0, 100, 100);
    NesterovOptimizer opt(region, {{5, 5}});
    opt.reset({{50, 50}});
    for (int i = 0; i < 10; ++i)
        opt.step({{0, 0}});
    EXPECT_NEAR(opt.solution()[0].x, 50.0, 1e-9);
}

TEST(Nesterov, SizeMismatchPanics)
{
    NesterovOptimizer opt(Rect(0, 0, 10, 10), {{1, 1}});
    EXPECT_THROW(opt.reset({{1, 1}, {2, 2}}), std::logic_error);
    opt.reset({{5, 5}});
    EXPECT_THROW(opt.step({{0, 0}, {0, 0}}), std::logic_error);
}

// largestNorm takes std::hypot only on entries whose normSq is within
// 1e-9 of the largest; it must return the full hypot scan's bits.

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Unit vectors at random angles, scaled by @p scale. */
std::vector<Vec2>
unitVectors(std::size_t n, double scale, Rng &rng)
{
    std::vector<Vec2> g(n);
    for (Vec2 &v : g) {
        const double a = rng.uniform(0.0, 2.0 * std::numbers::pi);
        v = Vec2(std::cos(a) * scale, std::sin(a) * scale);
    }
    return g;
}

TEST(LargestNorm, NearTiesMatchFullScanBitwise)
{
    // The normSq of unit vectors collide on a few doubles next to 1
    // while their hypot differ in the last bits, so the largest hypot
    // need not sit on the largest normSq. Scales up to the edges of
    // the filtered range keep that so.
    Rng rng(29);
    int ties = 0;
    int off_argmax = 0;
    for (const double scale : {1.0, 3.7e-100, 2.1e100, 1.2e-140, 0.9e140}) {
        for (int trial = 0; trial < 200; ++trial) {
            SCOPED_TRACE(::testing::Message()
                         << "scale " << scale << " trial " << trial);
            const std::vector<Vec2> g = unitVectors(32, scale, rng);
            ASSERT_TRUE(sameBits(largestNorm(g), oracle::largestNorm(g)));
            double m2 = 0.0;
            for (const Vec2 &v : g)
                m2 = std::max(m2, v.normSq());
            for (std::size_t i = 0; i < g.size(); ++i) {
                if (g[i].norm() == oracle::largestNorm(g) &&
                    g[i].normSq() < m2)
                    ++off_argmax;
                for (std::size_t j = 0; j < i; ++j)
                    ties += g[i].normSq() == g[j].normSq() &&
                            g[i].norm() != g[j].norm();
            }
        }
    }
    // The cases the filter's slack exists for did occur.
    EXPECT_GT(ties, 0);
    EXPECT_GT(off_argmax, 0);
}

TEST(LargestNorm, OverflowingAndUnderflowingNormSqMatchFullScan)
{
    // Components near 1e160 square to inf, and near 1e-160 to a
    // subnormal or 0, so every entry is scanned.
    Rng rng(30);
    for (const double scale : {1e160, 3e154, 1e-160, 2e-162, 1e-320}) {
        for (int trial = 0; trial < 50; ++trial) {
            SCOPED_TRACE(::testing::Message()
                         << "scale " << scale << " trial " << trial);
            std::vector<Vec2> g = unitVectors(16, scale, rng);
            if (trial % 2 == 1)
                g.push_back(Vec2(rng.uniform(-1.0, 1.0), 0.5));
            EXPECT_TRUE(
                sameBits(largestNorm(g), oracle::largestNorm(g)));
        }
    }
}

TEST(LargestNorm, NanEntriesMatchFullScan)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    Rng rng(31);
    const std::vector<Vec2> specials = {
        {nan, 1.0}, {nan, nan}, {2.0, nan}, {inf, nan}, {nan, -inf},
        {inf, 0.0}, {0.0, -inf}};
    for (const Vec2 &special : specials) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<Vec2> g = unitVectors(8, 3.0, rng);
            g.insert(g.begin() + static_cast<long>(rng.below(g.size())),
                     special);
            EXPECT_TRUE(sameBits(largestNorm(g), oracle::largestNorm(g)))
                << special.x << ", " << special.y;
        }
        const std::vector<Vec2> alone = {special};
        EXPECT_TRUE(
            sameBits(largestNorm(alone), oracle::largestNorm(alone)));
    }
}

TEST(LargestNorm, ZeroAndEmptyGradientsGiveZero)
{
    const std::vector<Vec2> zeros(10, Vec2(0.0, 0.0));
    const std::vector<Vec2> signed_zeros = {{-0.0, 0.0}, {0.0, -0.0}};
    for (const std::vector<Vec2> &g :
         {zeros, signed_zeros, std::vector<Vec2>{}}) {
        EXPECT_TRUE(sameBits(largestNorm(g), 0.0));
        EXPECT_TRUE(sameBits(largestNorm(g), oracle::largestNorm(g)));
    }
}

} // namespace
} // namespace qplacer
