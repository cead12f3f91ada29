#include <gtest/gtest.h>

#include <algorithm>

#include "geometry/spatial_hash.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

TEST(SpatialHash, InsertAndQuery)
{
    SpatialHash hash(Rect(0, 0, 100, 100), 10);
    hash.insert(1, {50, 50});
    hash.insert(2, {52, 50});
    hash.insert(3, {90, 90});
    EXPECT_EQ(hash.size(), 3u);

    auto near = hash.query({50, 50}, 5.0);
    std::sort(near.begin(), near.end());
    EXPECT_EQ(near, (std::vector<std::int32_t>{1, 2}));

    const auto far = hash.query({10, 10}, 5.0);
    EXPECT_TRUE(far.empty());
}

TEST(SpatialHash, RadiusIsEuclidean)
{
    SpatialHash hash(Rect(0, 0, 100, 100), 10);
    hash.insert(1, {50, 50});
    hash.insert(2, {57, 57}); // ~9.9 away
    EXPECT_EQ(hash.query({50, 50}, 9.0).size(), 1u);
    EXPECT_EQ(hash.query({50, 50}, 10.0).size(), 2u);
}

TEST(SpatialHash, QueryRect)
{
    SpatialHash hash(Rect(0, 0, 100, 100), 25);
    hash.insert(1, {10, 10});
    hash.insert(2, {60, 60});
    const auto in_box = hash.queryRect(Rect(0, 0, 30, 30));
    EXPECT_EQ(in_box, (std::vector<std::int32_t>{1}));
}

TEST(SpatialHash, MatchesBruteForce)
{
    Rng rng(17);
    SpatialHash hash(Rect(0, 0, 1000, 1000), 50);
    std::vector<Vec2> points;
    for (int i = 0; i < 300; ++i) {
        points.emplace_back(rng.uniform(0, 1000), rng.uniform(0, 1000));
        hash.insert(i, points.back());
    }
    for (int trial = 0; trial < 20; ++trial) {
        const Vec2 c(rng.uniform(0, 1000), rng.uniform(0, 1000));
        const double r = rng.uniform(10, 200);
        auto got = hash.query(c, r);
        std::sort(got.begin(), got.end());
        std::vector<std::int32_t> want;
        for (int i = 0; i < 300; ++i) {
            if ((points[i] - c).normSq() <= r * r)
                want.push_back(i);
        }
        EXPECT_EQ(got, want);
    }
}

TEST(SpatialHash, OutOfRegionPointsAreClamped)
{
    SpatialHash hash(Rect(0, 0, 100, 100), 10);
    hash.insert(1, {150, 150}); // clamped into the last bucket
    EXPECT_EQ(hash.query({150, 150}, 5).size(), 1u);
}

} // namespace
} // namespace qplacer
