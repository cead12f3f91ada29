#include "legal/spiral.hpp"

#include <algorithm>
#include <climits>
#include <cmath>

namespace qplacer {

namespace {

/**
 * Ring walk: rings of growing radius, each side in a fixed candidate
 * order. Each ring side keeps a "first free slot at or after" cursor
 * (nextPlaceableX/Y over the occupancy bitset), so probes inside a
 * known-occupied stretch are skipped without being tested. A probe is
 * only ever skipped when its cell span is fully on-grid and the cursor
 * proves the span occupied -- conditions under which canPlace() is
 * guaranteed false -- so the first accepted candidate is exactly the
 * one a probe of every candidate would find.
 */
template <typename TryAt>
std::optional<Vec2>
ringWalk(const OccupancyGrid &grid, const OccupancyGrid::CellSpan &base,
         int max_radius, const TryAt &try_at)
{
    const int nx = grid.nx();
    const int ny = grid.ny();
    const int span_w = base.x1 - base.x0 + 1;
    const int span_h = base.y1 - base.y0 + 1;

    for (int r = 1; r <= max_radius; ++r) {
        // Top/bottom ring rows: x sweeps left to right in two fixed
        // row bands, one next-free-x cursor each.
        const int lo_y0 = base.y0 - r;
        const int hi_y0 = base.y0 + r;
        const bool lo_on_grid = lo_y0 >= 0 && lo_y0 + span_h <= ny;
        const bool hi_on_grid = hi_y0 >= 0 && hi_y0 + span_h <= ny;
        int next_lo = INT_MIN;
        int next_hi = INT_MIN;
        for (int dx = -r; dx <= r; ++dx) {
            const int x0 = base.x0 + dx;
            const bool x_on_grid = x0 >= 0 && x0 + span_w <= nx;
            if (!lo_on_grid || !x_on_grid) {
                if (auto hit = try_at(dx, -r))
                    return hit;
            } else if (x0 >= next_lo) {
                next_lo = grid.nextPlaceableX(lo_y0, lo_y0 + span_h - 1,
                                              x0, span_w);
                if (next_lo == x0) {
                    if (auto hit = try_at(dx, -r))
                        return hit;
                }
            }
            if (!hi_on_grid || !x_on_grid) {
                if (auto hit = try_at(dx, r))
                    return hit;
            } else if (x0 >= next_hi) {
                next_hi = grid.nextPlaceableX(hi_y0, hi_y0 + span_h - 1,
                                              x0, span_w);
                if (next_hi == x0) {
                    if (auto hit = try_at(dx, r))
                        return hit;
                }
            }
        }

        // Left/right ring columns: y sweeps bottom to top in two fixed
        // column bands, one next-free-y cursor each.
        const int left_x0 = base.x0 - r;
        const int right_x0 = base.x0 + r;
        const bool left_on_grid = left_x0 >= 0 && left_x0 + span_w <= nx;
        const bool right_on_grid =
            right_x0 >= 0 && right_x0 + span_w <= nx;
        int next_left = INT_MIN;
        int next_right = INT_MIN;
        for (int dy = -r + 1; dy <= r - 1; ++dy) {
            const int y0 = base.y0 + dy;
            const bool y_on_grid = y0 >= 0 && y0 + span_h <= ny;
            if (!left_on_grid || !y_on_grid) {
                if (auto hit = try_at(-r, dy))
                    return hit;
            } else if (y0 >= next_left) {
                next_left = grid.nextPlaceableY(
                    left_x0, left_x0 + span_w - 1, y0, span_h);
                if (next_left == y0) {
                    if (auto hit = try_at(-r, dy))
                        return hit;
                }
            }
            if (!right_on_grid || !y_on_grid) {
                if (auto hit = try_at(r, dy))
                    return hit;
            } else if (y0 >= next_right) {
                next_right = grid.nextPlaceableY(
                    right_x0, right_x0 + span_w - 1, y0, span_h);
                if (next_right == y0) {
                    if (auto hit = try_at(r, dy))
                        return hit;
                }
            }
        }
    }
    return std::nullopt;
}

} // namespace

std::optional<Vec2>
spiralSearch(const OccupancyGrid &grid, Vec2 desired, double w, double h,
             int max_radius)
{
    return spiralSearchFiltered(grid, desired, w, h, nullptr, max_radius);
}

std::optional<Vec2>
spiralSearchFiltered(const OccupancyGrid &grid, Vec2 desired, double w,
                     double h,
                     const std::function<bool(Vec2)> &acceptable,
                     int max_radius)
{
    const double cell = grid.cellUm();
    const Vec2 snapped = grid.snapCenter(desired, w, h);

    if (max_radius <= 0)
        max_radius = std::max(grid.nx(), grid.ny());

    auto try_at = [&](int dx, int dy) -> std::optional<Vec2> {
        const Vec2 center(snapped.x + dx * cell, snapped.y + dy * cell);
        const Rect rect = Rect::fromCenter(center, w, h);
        if (grid.canPlace(rect) && (!acceptable || acceptable(center)))
            return center;
        return std::nullopt;
    };

    if (auto hit = try_at(0, 0))
        return hit;

    const OccupancyGrid::CellSpan base =
        grid.cellSpanOf(Rect::fromCenter(snapped, w, h));
    return ringWalk(grid, base, max_radius, try_at);
}

} // namespace qplacer
