/**
 * @file
 * Randomized equivalence suite for the bitset-backed occupancy grid
 * and the skip-cursor spiral search (ctest -L legal).
 *
 * A self-contained reference implementation -- the pre-bitset per-cell
 * scans, retained here verbatim -- is driven through the same mixed
 * occupy/release sequences as the production OccupancyGrid, and every
 * query (canPlace, canPlaceIgnoring, ownersIn, spiral searches, the
 * next-placeable scans) must agree exactly, including edge-of-region
 * rects and footprints larger than one summary block. The legalizer's
 * layouts are those of a per-cell scan because of this equivalence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "legal/occupancy.hpp"
#include "legal/spiral.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

/** The pre-bitset occupancy grid, kept as the equivalence baseline. */
class ReferenceGrid
{
  public:
    ReferenceGrid(Rect region, double cell_um)
        : region_(region), cellUm_(cell_um)
    {
        nx_ = static_cast<int>(
            std::floor(region.width() / cell_um + 1e-6));
        ny_ = static_cast<int>(
            std::floor(region.height() / cell_um + 1e-6));
        owner_.assign(static_cast<std::size_t>(nx_) * ny_, -1);
    }

    bool
    canPlaceIgnoring(const Rect &rect, std::int32_t ignore_id) const
    {
        if (!inRegion(rect))
            return false;
        const Span s = spanOf(rect);
        for (int iy = std::max(0, s.y0); iy <= std::min(ny_ - 1, s.y1);
             ++iy) {
            for (int ix = std::max(0, s.x0);
                 ix <= std::min(nx_ - 1, s.x1); ++ix) {
                const std::int32_t o =
                    owner_[static_cast<std::size_t>(iy) * nx_ + ix];
                if (o >= 0 && o != ignore_id)
                    return false;
            }
        }
        return true;
    }

    bool canPlace(const Rect &rect) const
    {
        return canPlaceIgnoring(rect, -2);
    }

    void
    occupy(const Rect &rect, std::int32_t id)
    {
        const Span s = spanOf(rect);
        for (int iy = s.y0; iy <= s.y1; ++iy) {
            for (int ix = s.x0; ix <= s.x1; ++ix) {
                if (ix < 0 || ix >= nx_ || iy < 0 || iy >= ny_)
                    continue;
                owner_[static_cast<std::size_t>(iy) * nx_ + ix] = id;
            }
        }
    }

    void
    release(const Rect &rect, std::int32_t id)
    {
        const Span s = spanOf(rect);
        for (int iy = std::max(0, s.y0); iy <= std::min(ny_ - 1, s.y1);
             ++iy) {
            for (int ix = std::max(0, s.x0);
                 ix <= std::min(nx_ - 1, s.x1); ++ix) {
                std::int32_t &o =
                    owner_[static_cast<std::size_t>(iy) * nx_ + ix];
                if (o == id)
                    o = -1;
            }
        }
    }

    /** First-encounter-order dedup, the original std::find version. */
    std::vector<std::int32_t>
    ownersIn(const Rect &rect) const
    {
        std::vector<std::int32_t> out;
        const Span s = spanOf(rect);
        for (int iy = std::max(0, s.y0); iy <= std::min(ny_ - 1, s.y1);
             ++iy) {
            for (int ix = std::max(0, s.x0);
                 ix <= std::min(nx_ - 1, s.x1); ++ix) {
                const std::int32_t o =
                    owner_[static_cast<std::size_t>(iy) * nx_ + ix];
                if (o >= 0 &&
                    std::find(out.begin(), out.end(), o) == out.end()) {
                    out.push_back(o);
                }
            }
        }
        return out;
    }

    int nx() const { return nx_; }
    int ny() const { return ny_; }

  private:
    struct Span
    {
        int x0, x1, y0, y1;
    };

    Span
    spanOf(const Rect &rect) const
    {
        Span s;
        s.x0 = static_cast<int>(
            std::floor((rect.lo.x - region_.lo.x) / cellUm_ + 1e-6));
        s.y0 = static_cast<int>(
            std::floor((rect.lo.y - region_.lo.y) / cellUm_ + 1e-6));
        s.x1 = static_cast<int>(std::ceil(
                   (rect.hi.x - region_.lo.x) / cellUm_ - 1e-6)) - 1;
        s.y1 = static_cast<int>(std::ceil(
                   (rect.hi.y - region_.lo.y) / cellUm_ - 1e-6)) - 1;
        return s;
    }

    bool
    inRegion(const Rect &rect) const
    {
        return rect.lo.x >= region_.lo.x - 1e-6 &&
               rect.lo.y >= region_.lo.y - 1e-6 &&
               rect.hi.x <= region_.hi.x + 1e-6 &&
               rect.hi.y <= region_.hi.y + 1e-6;
    }

    Rect region_;
    double cellUm_;
    int nx_;
    int ny_;
    std::vector<std::int32_t> owner_;
};

/** The pre-skip ring walk over the reference grid. */
std::optional<Vec2>
referenceSpiral(const ReferenceGrid &ref, const OccupancyGrid &snap,
                Vec2 desired, double w, double h,
                const std::function<bool(Vec2)> &acceptable,
                int max_radius)
{
    const double cell = 100.0;
    const Vec2 snapped = snap.snapCenter(desired, w, h);
    if (max_radius <= 0)
        max_radius = std::max(ref.nx(), ref.ny());
    auto try_at = [&](int dx, int dy) -> std::optional<Vec2> {
        const Vec2 center(snapped.x + dx * cell, snapped.y + dy * cell);
        const Rect rect = Rect::fromCenter(center, w, h);
        if (ref.canPlace(rect) && (!acceptable || acceptable(center)))
            return center;
        return std::nullopt;
    };
    if (auto hit = try_at(0, 0))
        return hit;
    for (int r = 1; r <= max_radius; ++r) {
        for (int dx = -r; dx <= r; ++dx) {
            if (auto hit = try_at(dx, -r))
                return hit;
            if (auto hit = try_at(dx, r))
                return hit;
        }
        for (int dy = -r + 1; dy <= r - 1; ++dy) {
            if (auto hit = try_at(-r, dy))
                return hit;
            if (auto hit = try_at(r, dy))
                return hit;
        }
    }
    return std::nullopt;
}

/**
 * Random cell-aligned rect; sizes span sub-word, word-straddling, and
 * multi-summary-block footprints, and positions deliberately run past
 * the region edge on all four sides.
 */
Rect
randomRect(Rng &rng, const Rect &region)
{
    const double cell = 100.0;
    const double w = cell * static_cast<double>(rng.range(1, 12));
    const double h = cell * static_cast<double>(rng.range(1, 12));
    const double x0 =
        region.lo.x + cell * static_cast<double>(rng.range(-3, 40));
    const double y0 =
        region.lo.y + cell * static_cast<double>(rng.range(-3, 33));
    return Rect(x0, y0, x0 + w, y0 + h);
}

class FastEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FastEquivalence, MixedOccupyReleaseQueries)
{
    // 37 x 29 cells: ragged against both the 64-bit words and the 8x8
    // summary blocks.
    const Rect region(0, 0, 3700, 2900);
    OccupancyGrid fast(region, 100.0);
    ReferenceGrid ref(region, 100.0);
    Rng rng(GetParam());

    std::vector<std::pair<Rect, std::int32_t>> placed;
    std::vector<std::int32_t> scratch;
    std::int32_t next_id = 0;

    for (int step = 0; step < 4000; ++step) {
        const Rect rect = randomRect(rng, region);
        const int op = static_cast<int>(rng.below(5));
        if (op <= 1) {
            // Try to place.
            const bool can_fast = fast.canPlace(rect);
            ASSERT_EQ(can_fast, ref.canPlace(rect)) << "step " << step;
            if (can_fast) {
                fast.occupy(rect, next_id);
                ref.occupy(rect, next_id);
                placed.emplace_back(rect, next_id);
                ++next_id;
            }
        } else if (op == 2 && !placed.empty()) {
            // Release a random placed rect.
            const std::size_t pick = rng.below(placed.size());
            fast.release(placed[pick].first, placed[pick].second);
            ref.release(placed[pick].first, placed[pick].second);
            placed[pick] = placed.back();
            placed.pop_back();
        } else if (op == 3) {
            // canPlaceIgnoring with a live id.
            const std::int32_t ignore =
                placed.empty()
                    ? -2
                    : placed[rng.below(placed.size())].second;
            ASSERT_EQ(fast.canPlaceIgnoring(rect, ignore),
                      ref.canPlaceIgnoring(rect, ignore))
                << "step " << step;
        } else {
            // ownersIn: legacy overload preserves first-encounter
            // order; the scratch overload is the sorted set.
            const auto expect = ref.ownersIn(rect);
            ASSERT_EQ(fast.ownersIn(rect), expect) << "step " << step;
            fast.ownersIn(rect, scratch);
            auto sorted = expect;
            std::sort(sorted.begin(), sorted.end());
            ASSERT_EQ(scratch, sorted) << "step " << step;
        }
    }
}

TEST_P(FastEquivalence, NextPlaceableMatchesBruteForce)
{
    const Rect region(0, 0, 3700, 2900);
    OccupancyGrid fast(region, 100.0);
    ReferenceGrid ref(region, 100.0);
    Rng rng(GetParam() + 77);

    for (std::int32_t id = 0; id < 60; ++id) {
        const Rect rect = randomRect(rng, region);
        if (fast.canPlace(rect)) {
            fast.occupy(rect, id);
            ref.occupy(rect, id);
        }
    }

    auto span_blocked = [&](int x0, int x1, int y0, int y1) {
        for (int iy = y0; iy <= y1; ++iy)
            for (int ix = x0; ix <= x1; ++ix)
                if (ref.ownersIn(Rect(ix * 100.0, iy * 100.0,
                                      (ix + 1) * 100.0,
                                      (iy + 1) * 100.0))
                        .size() > 0)
                    return true;
        return false;
    };

    for (int trial = 0; trial < 300; ++trial) {
        const int span_w = static_cast<int>(rng.range(1, 10));
        const int span_h = static_cast<int>(rng.range(1, 10));
        const int y0 = static_cast<int>(rng.range(0, fast.ny() - 1));
        const int y1 =
            std::min(fast.ny() - 1,
                     y0 + static_cast<int>(rng.range(0, 9)));
        const int x_from = static_cast<int>(rng.range(0, fast.nx() - 1));

        int expect_x = fast.nx();
        for (int x = x_from; x + span_w <= fast.nx(); ++x) {
            if (!span_blocked(x, x + span_w - 1, y0, y1)) {
                expect_x = x;
                break;
            }
        }
        ASSERT_EQ(fast.nextPlaceableX(y0, y1, x_from, span_w), expect_x)
            << "trial " << trial;

        const int x0 = static_cast<int>(rng.range(0, fast.nx() - 1));
        const int x1 =
            std::min(fast.nx() - 1,
                     x0 + static_cast<int>(rng.range(0, 9)));
        const int y_from = static_cast<int>(rng.range(0, fast.ny() - 1));
        int expect_y = fast.ny();
        for (int y = y_from; y + span_h <= fast.ny(); ++y) {
            if (!span_blocked(x0, x1, y, y + span_h - 1)) {
                expect_y = y;
                break;
            }
        }
        ASSERT_EQ(fast.nextPlaceableY(x0, x1, y_from, span_h), expect_y)
            << "trial " << trial;
    }
}

TEST_P(FastEquivalence, SpiralFindsTheReferenceCandidate)
{
    const Rect region(0, 0, 3700, 2900);
    OccupancyGrid fast(region, 100.0);
    ReferenceGrid ref(region, 100.0);
    Rng rng(GetParam() + 555);

    // Congest the grid so rings genuinely skip occupied stretches.
    for (std::int32_t id = 0; id < 220; ++id) {
        const Rect rect = randomRect(rng, region);
        if (fast.canPlace(rect)) {
            fast.occupy(rect, id);
            ref.occupy(rect, id);
        }
    }

    // A pure center predicate, exercising the filtered search: reject
    // every other cell column.
    auto checker = [](Vec2 center) {
        return (static_cast<long long>(center.x / 100.0) & 1) == 0;
    };

    for (int trial = 0; trial < 150; ++trial) {
        const double w = 100.0 * static_cast<double>(rng.range(1, 8));
        const double h = 100.0 * static_cast<double>(rng.range(1, 8));
        const Vec2 desired(rng.uniform(-200.0, region.hi.x + 200.0),
                           rng.uniform(-200.0, region.hi.y + 200.0));
        const int radius = static_cast<int>(rng.range(0, 40));

        const auto got = spiralSearch(fast, desired, w, h, radius);
        const auto expect =
            referenceSpiral(ref, fast, desired, w, h, nullptr, radius);
        ASSERT_EQ(got.has_value(), expect.has_value()) << "trial "
                                                       << trial;
        if (got) {
            EXPECT_EQ(got->x, expect->x) << "trial " << trial;
            EXPECT_EQ(got->y, expect->y) << "trial " << trial;
        }

        const auto got_f =
            spiralSearchFiltered(fast, desired, w, h, checker, radius);
        const auto expect_f =
            referenceSpiral(ref, fast, desired, w, h, checker, radius);
        ASSERT_EQ(got_f.has_value(), expect_f.has_value())
            << "trial " << trial;
        if (got_f) {
            EXPECT_EQ(got_f->x, expect_f->x) << "trial " << trial;
            EXPECT_EQ(got_f->y, expect_f->y) << "trial " << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastEquivalence,
                         ::testing::Values(3, 71, 404, 12345));

} // namespace
} // namespace qplacer
