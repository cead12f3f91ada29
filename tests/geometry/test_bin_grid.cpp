#include <gtest/gtest.h>

#include "geometry/bin_grid.hpp"

namespace qplacer {
namespace {

TEST(BinGrid, Construction)
{
    BinGrid g(Rect(0, 0, 100, 50), 10, 5);
    EXPECT_EQ(g.nx(), 10);
    EXPECT_EQ(g.ny(), 5);
    EXPECT_DOUBLE_EQ(g.binWidth(), 10.0);
    EXPECT_DOUBLE_EQ(g.binHeight(), 10.0);
    EXPECT_DOUBLE_EQ(g.binArea(), 100.0);
    EXPECT_DOUBLE_EQ(g.total(), 0.0);
}

TEST(BinGrid, SplatConservesCharge)
{
    BinGrid g(Rect(0, 0, 100, 100), 10, 10);
    g.splat(Rect(15, 15, 45, 35), 7.0);
    EXPECT_NEAR(g.total(), 7.0, 1e-9);
}

TEST(BinGrid, SplatWithinOneBin)
{
    BinGrid g(Rect(0, 0, 100, 100), 10, 10);
    g.splat(Rect(12, 12, 18, 18), 3.0);
    EXPECT_NEAR(g.at(1, 1), 3.0, 1e-9);
    EXPECT_NEAR(g.total(), 3.0, 1e-9);
}

TEST(BinGrid, SplatSplitsProportionally)
{
    BinGrid g(Rect(0, 0, 20, 10), 2, 1);
    // Rect spans 25% in the left bin, 75% in the right bin.
    g.splat(Rect(7.5, 0, 17.5, 10), 4.0);
    EXPECT_NEAR(g.at(0, 0), 1.0, 1e-9);
    EXPECT_NEAR(g.at(1, 0), 3.0, 1e-9);
}

TEST(BinGrid, OutOfRegionChargeIsShiftedIn)
{
    BinGrid g(Rect(0, 0, 100, 100), 10, 10);
    g.splat(Rect(-20, 40, 0, 60), 5.0); // entirely left of the region
    EXPECT_NEAR(g.total(), 5.0, 1e-9);
}

TEST(BinGrid, ClampIndices)
{
    BinGrid g(Rect(0, 0, 100, 100), 10, 10);
    EXPECT_EQ(g.clampX(-5), 0);
    EXPECT_EQ(g.clampX(105), 9);
    EXPECT_EQ(g.clampY(55), 5);
}

TEST(BinGrid, SampleAveragesOverFootprint)
{
    const BinGrid g(Rect(0, 0, 20, 10), 2, 1);
    const double fx[] = {2.0, 6.0};
    const double fy[] = {-1.0, 3.0};
    // Rect centered on the boundary: equal-weight average.
    const Vec2 mid = g.gather(g.stencil(Rect(5, 0, 15, 10)), fx, fy);
    EXPECT_NEAR(mid.x, 4.0, 1e-9);
    EXPECT_NEAR(mid.y, 1.0, 1e-9);
    // Rect inside one bin: that bin's value.
    const Vec2 left = g.gather(g.stencil(Rect(1, 1, 5, 5)), fx, fy);
    EXPECT_NEAR(left.x, 2.0, 1e-9);
    EXPECT_NEAR(left.y, -1.0, 1e-9);
}

TEST(BinGrid, ClearResets)
{
    BinGrid g(Rect(0, 0, 10, 10), 2, 2);
    g.splat(Rect(0, 0, 10, 10), 4.0);
    g.clear();
    EXPECT_DOUBLE_EQ(g.total(), 0.0);
}

TEST(BinGrid, AtOutOfRangePanics)
{
    BinGrid g(Rect(0, 0, 10, 10), 2, 2);
    EXPECT_THROW(g.at(2, 0), std::logic_error);
    EXPECT_THROW(g.at(0, -1), std::logic_error);
}

} // namespace
} // namespace qplacer
