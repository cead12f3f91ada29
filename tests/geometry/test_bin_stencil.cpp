/**
 * @file
 * Stencil property suite: the header-inline walk that BinGrid::splat
 * and BinGrid::gather share must reproduce, bit for bit (memcmp), the
 * bin-by-bin splat and field sample it replaced (oracle::binSplat,
 * oracle::binSample in tests/oracles). Seeded random footprints cover
 * every clamp case: inside the region, straddling an edge, wholly
 * outside, larger than the region, bin-aligned on both edges, of zero
 * width or height, slivers thinner than the 1e-12 back-off on the
 * region's low edge, and far edges whose back-off lands exactly on a
 * bin edge. The stencil's bin span is checked against the oracle's
 * std::floor indices, which the production clamp forms with a cast.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "geometry/bin_grid.hpp"
#include "oracles/oracles.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

struct Shape
{
    int nx;
    int ny;
};

// An offset region whose bin sizes are not exact binary fractions.
const Rect kRegion(-137.3, 251.9, 3862.8, 3257.2);
const Shape kShapes[] = {{32, 16}, {64, 64}, {256, 256}};

enum class Kind
{
    Inside,
    Straddling,
    Outside,
    Larger,
    Aligned,
    ZeroWidth,
    Sliver,
    BackoffOnEdge,
};
constexpr int kKindCount = static_cast<int>(Kind::BackoffOnEdge) + 1;

/**
 * A coordinate c > @p edge with c - 1e-12 == @p edge exactly, so the
 * stencil's backed-off far edge lands on the bin edge; @p edge itself
 * if no such double is near.
 */
double
backoffOnto(double edge)
{
    double c = edge + 1e-12;
    for (int step = 0; step < 8 && c - 1e-12 != edge; ++step)
        c = std::nextafter(c, c - 1e-12 < edge ? HUGE_VAL : -HUGE_VAL);
    return c - 1e-12 == edge ? c : edge;
}

/** A random footprint of kind @p kind on @p grid. */
Rect
footprint(const BinGrid &grid, Kind kind, Rng &rng)
{
    const Rect &reg = grid.region();
    const double bw = grid.binWidth();
    const double bh = grid.binHeight();
    const double w = rng.uniform(0.05, 4.0) * bw;
    const double h = rng.uniform(0.05, 4.0) * bh;
    const Vec2 inside(rng.uniform(reg.lo.x, reg.hi.x),
                      rng.uniform(reg.lo.y, reg.hi.y));
    if (kind == Kind::Inside)
        return Rect::fromCenter(inside, w, h);
    if (kind == Kind::Straddling) {
        // Centred on one of the four edges.
        Vec2 c = inside;
        const std::uint64_t edge = rng.below(4);
        if (edge < 2)
            c.x = edge == 0 ? reg.lo.x : reg.hi.x;
        else
            c.y = edge == 2 ? reg.lo.y : reg.hi.y;
        return Rect::fromCenter(c, w, h);
    }
    if (kind == Kind::Outside) {
        // Beyond one edge (or corner) by more than its own size.
        Vec2 c = inside;
        const double gap = rng.uniform(1.0, 3.0);
        const bool beyond_x = rng.below(2) == 0;
        if (beyond_x)
            c.x = rng.below(2) == 0 ? reg.lo.x - gap * w : reg.hi.x + gap * w;
        if (!beyond_x || rng.below(2) == 0)
            c.y = rng.below(2) == 0 ? reg.lo.y - gap * h : reg.hi.y + gap * h;
        return Rect::fromCenter(c, w, h);
    }
    if (kind == Kind::Larger) {
        // Wider and/or taller than the region itself.
        const int axes = static_cast<int>(rng.below(3));
        const double lw = axes != 1 ? reg.width() * rng.uniform(1.0, 1.5) : w;
        const double lh = axes != 0 ? reg.height() * rng.uniform(1.0, 1.5) : h;
        return Rect::fromCenter(inside, lw, lh);
    }
    if (kind == Kind::Aligned) {
        // Both edges on bin boundaries, as the walk computes them.
        const auto ix0 = static_cast<int>(rng.below(grid.nx()));
        const auto iy0 = static_cast<int>(rng.below(grid.ny()));
        const int ix1 =
            std::min(grid.nx(), ix0 + 1 + static_cast<int>(rng.below(4)));
        const int iy1 =
            std::min(grid.ny(), iy0 + 1 + static_cast<int>(rng.below(4)));
        return Rect(reg.lo.x + ix0 * bw, reg.lo.y + iy0 * bh,
                    reg.lo.x + ix1 * bw, reg.lo.y + iy1 * bh);
    }
    if (kind == Kind::Sliver) {
        // Thinner than the 1e-12 back-off, at or left of (below) the
        // region's low edge, so the far edge's bin quotient lies in
        // (-1, 0).
        const double thin = rng.uniform(1e-13, 9e-13);
        const double off = rng.below(2) == 0 ? 0.0 : rng.uniform(1.0, 50.0);
        if (rng.below(2) == 0)
            return Rect(reg.lo.x - off - thin, inside.y,
                        reg.lo.x - off, inside.y + h);
        return Rect(inside.x, reg.lo.y - off - thin, inside.x + w,
                    reg.lo.y - off);
    }
    if (kind == Kind::BackoffOnEdge) {
        // The far edge 1e-12 past a bin edge (as the walk computes it),
        // the near edge on a bin edge or strictly inside a bin.
        const auto ix = static_cast<int>(1 + rng.below(grid.nx()));
        const auto iy = static_cast<int>(1 + rng.below(grid.ny()));
        const double hx = backoffOnto(reg.lo.x + ix * bw);
        const double hy = backoffOnto(reg.lo.y + iy * bh);
        const double into = rng.below(2) == 0 ? 0.0 : rng.uniform(0.1, 0.9);
        return Rect(reg.lo.x + (ix - 1) * bw + into * bw,
                    reg.lo.y + (iy - 1) * bh + into * bh, hx, hy);
    }
    // Kind::ZeroWidth: no width, or no height.
    return rng.below(2) == 0 ? Rect::fromCenter(inside, 0.0, h)
                             : Rect::fromCenter(inside, w, 0.0);
}

/** memcmp equality of two doubles. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** A map of random field values with some +0.0 and -0.0 entries. */
std::vector<double>
fieldMap(std::size_t cells, Rng &rng)
{
    std::vector<double> map(cells);
    for (std::size_t k = 0; k < cells; ++k) {
        const std::uint64_t pick = rng.below(8);
        if (pick == 0)
            map[k] = 0.0;
        else if (pick == 1)
            map[k] = -0.0;
        else
            map[k] = rng.uniform(-5.0, 5.0);
    }
    return map;
}

constexpr int kPerKind = 120;

TEST(BinStencil, ClampIndexMatchesFloorOracle)
{
    for (const Shape &shape : kShapes) {
        const BinGrid grid(kRegion, shape.nx, shape.ny);
        const Rect &reg = grid.region();
        const double bw = grid.binWidth();
        const double bh = grid.binHeight();
        // Quotients on every bin edge and just either side of it, in
        // (-1, 0), at -1 and below it, and at or past the far edge.
        std::vector<double> quotients = {-1e-300, -1e-17, -0.25, -0.5,
                                         -0.999999, -1.0, -1.5, -7.0,
                                         -1e6};
        for (int k = 0; k <= std::max(shape.nx, shape.ny) + 2; ++k) {
            quotients.push_back(k);
            quotients.push_back(std::nextafter(double(k), -HUGE_VAL));
            quotients.push_back(std::nextafter(double(k), HUGE_VAL));
            quotients.push_back(k + 0.5);
        }
        for (const double q : quotients) {
            SCOPED_TRACE(::testing::Message() << shape.nx << "x"
                                              << shape.ny << " q " << q);
            // At reg.lo + q * bin size (a bin edge as the walk computes
            // it, for integer q) and backed off by 1e-12 from there.
            for (const double back : {0.0, 1e-12}) {
                const double x = reg.lo.x + q * bw - back;
                const double y = reg.lo.y + q * bh - back;
                EXPECT_EQ(grid.clampX(x), oracle::floorBinIndex(
                                              x, reg.lo.x, bw, grid.nx()));
                EXPECT_EQ(grid.clampY(y), oracle::floorBinIndex(
                                              y, reg.lo.y, bh, grid.ny()));
            }
        }
    }
}

TEST(BinStencil, SpanMatchesFloorOracle)
{
    for (const Shape &shape : kShapes) {
        const BinGrid grid(kRegion, shape.nx, shape.ny);
        Rng rng(3000 + shape.nx * 7 + shape.ny);
        for (int k = 0; k < kKindCount; ++k) {
            for (int i = 0; i < kPerKind; ++i) {
                SCOPED_TRACE(::testing::Message()
                             << shape.nx << "x" << shape.ny << " kind " << k
                             << " footprint " << i);
                const Rect fp = footprint(grid, Kind(k), rng);
                const BinStencil s = grid.stencil(fp);
                const BinStencil o = oracle::binStencil(grid, fp);
                ASSERT_EQ(0, std::memcmp(&s.rect, &o.rect, sizeof(Rect)));
                ASSERT_EQ(s.ix0, o.ix0);
                ASSERT_EQ(s.ix1, o.ix1);
                ASSERT_EQ(s.iy0, o.iy0);
                ASSERT_EQ(s.iy1, o.iy1);
            }
        }
    }
}

TEST(BinStencil, SplatMatchesOracleBitwise)
{
    for (const Shape &shape : kShapes) {
        const BinGrid grid(kRegion, shape.nx, shape.ny);
        const std::size_t cells = grid.data().size();
        std::vector<double> walked(cells, 0.0);
        std::vector<double> reference(cells, 0.0);
        Rng rng(1000 + shape.nx * 7 + shape.ny);
        for (int k = 0; k < kKindCount; ++k) {
            for (int i = 0; i < kPerKind; ++i) {
                const Rect fp = footprint(grid, Kind(k), rng);
                const double amount = rng.uniform(0.1, 1e6);
                grid.splat(grid.stencil(fp), amount, walked.data());
                oracle::binSplat(grid, fp, amount, reference.data());
                ASSERT_EQ(0, std::memcmp(walked.data(), reference.data(),
                                         cells * sizeof(double)))
                    << shape.nx << "x" << shape.ny << " kind " << k
                    << " footprint " << i;
                std::fill(walked.begin(), walked.end(), 0.0);
                std::fill(reference.begin(), reference.end(), 0.0);
            }
        }
    }
}

TEST(BinStencil, GatherMatchesTwoOracleSamplesBitwise)
{
    for (const Shape &shape : kShapes) {
        const BinGrid grid(kRegion, shape.nx, shape.ny);
        Rng rng(2000 + shape.nx * 7 + shape.ny);
        const std::vector<double> fx = fieldMap(grid.data().size(), rng);
        const std::vector<double> fy = fieldMap(grid.data().size(), rng);
        for (int k = 0; k < kKindCount; ++k) {
            for (int i = 0; i < kPerKind; ++i) {
                SCOPED_TRACE(::testing::Message()
                             << shape.nx << "x" << shape.ny << " kind " << k
                             << " footprint " << i);
                const Rect fp = footprint(grid, Kind(k), rng);
                const Vec2 xi = grid.gather(grid.stencil(fp), fx.data(),
                                            fy.data());
                const double ox = oracle::binSample(grid, fx, fp);
                const double oy = oracle::binSample(grid, fy, fp);
                ASSERT_TRUE(sameBits(xi.x, ox));
                ASSERT_TRUE(sameBits(xi.y, oy));
                // The density gradient -q * xi: an empty clamp gives
                // -0.0 on both sides, never +0.0.
                const double q = fp.area() + 1.0;
                ASSERT_TRUE(sameBits(-q * xi.x, -q * ox));
                ASSERT_TRUE(sameBits(-q * xi.y, -q * oy));
                if (Kind(k) == Kind::ZeroWidth) {
                    EXPECT_TRUE(std::signbit(-q * xi.x));
                    EXPECT_EQ(-q * xi.x, 0.0);
                }
            }
        }
    }
}

} // namespace
} // namespace qplacer
