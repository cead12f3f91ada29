#include "geometry/rect.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace qplacer {

bool
Rect::contains(Vec2 p) const
{
    return p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y;
}

bool
Rect::containsRect(const Rect &other) const
{
    return other.lo.x >= lo.x && other.hi.x <= hi.x && other.lo.y >= lo.y &&
           other.hi.y <= hi.y;
}

bool
Rect::overlaps(const Rect &other) const
{
    return lo.x < other.hi.x && other.lo.x < hi.x && lo.y < other.hi.y &&
           other.lo.y < hi.y;
}

double
Rect::overlapArea(const Rect &other) const
{
    const Rect inter = intersect(other);
    if (inter.empty())
        return 0.0;
    return inter.area();
}

double
Rect::overlapLength(const Rect &other) const
{
    const double dx =
        std::min(hi.x, other.hi.x) - std::max(lo.x, other.lo.x);
    const double dy =
        std::min(hi.y, other.hi.y) - std::max(lo.y, other.lo.y);
    if (dx < 0.0 || dy < 0.0)
        return 0.0;
    return std::max(dx, dy);
}

double
Rect::gap(const Rect &other) const
{
    const double dx =
        std::max({0.0, other.lo.x - hi.x, lo.x - other.hi.x});
    const double dy =
        std::max({0.0, other.lo.y - hi.y, lo.y - other.hi.y});
    return std::hypot(dx, dy);
}

Rect
Rect::inflated(double margin) const
{
    return Rect(lo.x - margin, lo.y - margin, hi.x + margin, hi.y + margin);
}

Rect
Rect::unionWith(const Rect &other) const
{
    return Rect(std::min(lo.x, other.lo.x), std::min(lo.y, other.lo.y),
                std::max(hi.x, other.hi.x), std::max(hi.y, other.hi.y));
}

Rect
boundingBox(const std::vector<Rect> &rects)
{
    if (rects.empty())
        fatal("boundingBox: empty rectangle set");
    Rect box = rects.front();
    for (const Rect &r : rects)
        box = box.unionWith(r);
    return box;
}

} // namespace qplacer
