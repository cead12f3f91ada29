/**
 * @file
 * Near-pair sweep: every pair of centres within a box window of each
 * other. The centres are sorted by x, and each one scans forward while
 * the x offset stays inside the window, so the only storage is the
 * caller's centre array.
 */

#ifndef QPLACER_GEOMETRY_NEAR_PAIRS_HPP
#define QPLACER_GEOMETRY_NEAR_PAIRS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "geometry/vec2.hpp"

namespace qplacer {

/** One swept centre. */
struct NearPoint
{
    Vec2 pos;
    std::int32_t id;
};

/**
 * Call fn(a, b), a < b, once for every pair of finite centres whose x
 * offset dx and y offset dy both satisfy d * d <= reach * reach. That
 * window holds every pair that passes the centre-distance test
 * (b - a).normSq() <= reach * reach, bit for bit. Pairs come in sweep
 * order; a caller that sums over them sorts them first.
 *
 * @param points Reordered in place: the finite centres end up first,
 *               sorted by (x, id).
 */
template <class Fn>
void
forEachNearPair(std::vector<NearPoint> &points, double reach, Fn &&fn)
{
    const auto end = std::partition(
        points.begin(), points.end(), [](const NearPoint &p) {
            return std::isfinite(p.pos.x) && std::isfinite(p.pos.y);
        });
    std::sort(points.begin(), end,
              [](const NearPoint &p, const NearPoint &q) {
                  return p.pos.x < q.pos.x ||
                         (p.pos.x == q.pos.x && p.id < q.id);
              });
    const double r2 = reach * reach;
    for (auto p = points.begin(); p != end; ++p) {
        for (auto q = p + 1; q != end; ++q) {
            // Rounded subtraction is monotone, so dx only grows.
            const double dx = q->pos.x - p->pos.x;
            if (dx * dx > r2)
                break;
            const double dy = q->pos.y - p->pos.y;
            if (dy * dy > r2)
                continue;
            fn(std::min(p->id, q->id), std::max(p->id, q->id));
        }
    }
}

} // namespace qplacer

#endif // QPLACER_GEOMETRY_NEAR_PAIRS_HPP
