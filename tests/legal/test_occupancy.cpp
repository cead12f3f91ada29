#include <gtest/gtest.h>

#include "legal/occupancy.hpp"

namespace qplacer {
namespace {

TEST(Occupancy, PlaceAndBlock)
{
    OccupancyGrid grid(Rect(0, 0, 1000, 1000), 100);
    const Rect a(100, 100, 500, 500);
    EXPECT_TRUE(grid.canPlace(a));
    grid.occupy(a, 1);
    EXPECT_FALSE(grid.canPlace(a));
    EXPECT_FALSE(grid.canPlace(Rect(400, 400, 600, 600)));
    EXPECT_TRUE(grid.canPlace(Rect(500, 500, 700, 700)));
}

TEST(Occupancy, IgnoreOwnCells)
{
    OccupancyGrid grid(Rect(0, 0, 1000, 1000), 100);
    grid.occupy(Rect(0, 0, 300, 300), 7);
    EXPECT_FALSE(grid.canPlace(Rect(100, 100, 400, 400)));
    EXPECT_TRUE(grid.canPlaceIgnoring(Rect(100, 100, 400, 400), 7));
    grid.occupy(Rect(500, 0, 700, 200), 8);
    EXPECT_FALSE(grid.canPlaceIgnoring(Rect(400, 0, 600, 200), 7));
}

TEST(Occupancy, ReleaseFreesOnlyOwnCells)
{
    OccupancyGrid grid(Rect(0, 0, 1000, 1000), 100);
    grid.occupy(Rect(0, 0, 200, 200), 1);
    grid.occupy(Rect(200, 0, 400, 200), 2);
    grid.release(Rect(0, 0, 400, 200), 1); // only id 1's cells freed
    EXPECT_TRUE(grid.canPlace(Rect(0, 0, 200, 200)));
    EXPECT_FALSE(grid.canPlace(Rect(200, 0, 400, 200)));
}

TEST(Occupancy, OutOfRegionRejected)
{
    OccupancyGrid grid(Rect(0, 0, 1000, 1000), 100);
    EXPECT_FALSE(grid.canPlace(Rect(-100, 0, 100, 100)));
    EXPECT_FALSE(grid.canPlace(Rect(900, 900, 1100, 1100)));
    EXPECT_THROW(grid.occupy(Rect(-100, 0, 100, 100), 1),
                 std::logic_error);
}

TEST(Occupancy, DoubleOccupyPanics)
{
    OccupancyGrid grid(Rect(0, 0, 1000, 1000), 100);
    grid.occupy(Rect(0, 0, 200, 200), 1);
    EXPECT_THROW(grid.occupy(Rect(100, 100, 300, 300), 2),
                 std::logic_error);
}

TEST(Occupancy, OwnerQueries)
{
    OccupancyGrid grid(Rect(0, 0, 1000, 1000), 100);
    grid.occupy(Rect(200, 200, 400, 400), 5);
    // One-cell probes: the occupied cell, a free one, one off-grid.
    EXPECT_FALSE(grid.canPlace(Rect(200, 200, 300, 300)));
    EXPECT_TRUE(grid.canPlace(Rect(0, 0, 100, 100)));
    EXPECT_FALSE(grid.canPlace(Rect(5000, 0, 5100, 100)));

    grid.occupy(Rect(400, 200, 600, 400), 6);
    const auto owners = grid.ownersIn(Rect(100, 100, 700, 500));
    EXPECT_EQ(owners.size(), 2u);
}

TEST(Occupancy, SnapAlignsToLattice)
{
    OccupancyGrid grid(Rect(0, 0, 1000, 1000), 100);
    const Vec2 snapped = grid.snapCenter({333, 487}, 200, 200);
    // Lower-left corner lands on a multiple of 100.
    EXPECT_NEAR(std::fmod(snapped.x - 100.0, 100.0), 0.0, 1e-9);
    EXPECT_NEAR(std::fmod(snapped.y - 100.0, 100.0), 0.0, 1e-9);
    // Snapped center keeps the footprint in-region even at the edge.
    const Vec2 edge = grid.snapCenter({990, 990}, 200, 200);
    EXPECT_LE(edge.x + 100.0, 1000.0 + 1e-9);
}

} // namespace
} // namespace qplacer
