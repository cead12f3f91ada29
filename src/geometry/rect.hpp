/**
 * @file
 * Axis-aligned rectangle and the overlap kernels used throughout the
 * placer (bin overlap, hotspot detection, legality checks).
 */

#ifndef QPLACER_GEOMETRY_RECT_HPP
#define QPLACER_GEOMETRY_RECT_HPP

#include <algorithm>
#include <vector>

#include "geometry/vec2.hpp"

namespace qplacer {

/** Axis-aligned rectangle [lo.x, hi.x] x [lo.y, hi.y] in micrometers. */
struct Rect
{
    Vec2 lo;
    Vec2 hi;

    Rect() = default;
    Rect(Vec2 lo_, Vec2 hi_) : lo(lo_), hi(hi_) {}
    Rect(double x0, double y0, double x1, double y1)
        : lo(x0, y0), hi(x1, y1)
    {}

    /** Build a rectangle from its center and full width/height. */
    static Rect
    fromCenter(Vec2 center, double width, double height)
    {
        return Rect(center.x - width / 2, center.y - height / 2,
                    center.x + width / 2, center.y + height / 2);
    }

    double width() const { return hi.x - lo.x; }
    double height() const { return hi.y - lo.y; }
    double area() const { return width() * height(); }
    Vec2 center() const { return {(lo.x + hi.x) / 2, (lo.y + hi.y) / 2}; }

    /** True if width or height is non-positive. */
    bool empty() const { return hi.x <= lo.x || hi.y <= lo.y; }

    /** True if @p p lies inside (closed on lo, open on hi). */
    bool contains(Vec2 p) const;

    /** True if @p other lies entirely within this rectangle. */
    bool containsRect(const Rect &other) const;

    /** True if the two rectangles overlap with positive area. */
    bool overlaps(const Rect &other) const;

    /** Intersection rectangle (may be empty()). */
    Rect
    intersect(const Rect &other) const
    {
        return Rect(std::max(lo.x, other.lo.x), std::max(lo.y, other.lo.y),
                    std::min(hi.x, other.hi.x), std::min(hi.y, other.hi.y));
    }

    /** Area of overlap with @p other (0 if disjoint). */
    double overlapArea(const Rect &other) const;

    /**
     * Length of the 1-D projection overlap between the two rectangles:
     * the longer side of the intersection box. This is the len(p_i, p_j)
     * term of the hotspot metric (Eq. 18) for touching/overlapping
     * padded footprints.
     */
    double overlapLength(const Rect &other) const;

    /** Minimum gap between the rectangles (0 if they touch/overlap). */
    double gap(const Rect &other) const;

    /** This rectangle grown by @p margin on every side. */
    Rect inflated(double margin) const;

    /** This rectangle translated by @p delta. */
    Rect translated(Vec2 delta) const { return Rect(lo + delta, hi + delta); }

    /** Smallest rectangle covering both. */
    Rect unionWith(const Rect &other) const;
};

/** Minimum enclosing rectangle of a set of rectangles (A_mer support). */
Rect boundingBox(const std::vector<Rect> &rects);

} // namespace qplacer

#endif // QPLACER_GEOMETRY_RECT_HPP
