/**
 * @file
 * Uniform bin grid over the placement region.
 *
 * The density force rasterizes instance areas into this grid and reads
 * the field maps back through the same per-footprint stencil (see
 * core/density). Bin counts are powers of two so the spectral Poisson
 * solver can run FFT-based transforms directly on the density map.
 */

#ifndef QPLACER_GEOMETRY_BIN_GRID_HPP
#define QPLACER_GEOMETRY_BIN_GRID_HPP

#include <algorithm>
#include <cstddef>
#include <vector>

#include "geometry/rect.hpp"

namespace qplacer {

/**
 * A footprint clamped into a BinGrid's region and the span of bins it
 * covers (inclusive). An empty clamp has an empty span (ix1 < ix0), so
 * a walk over it visits no bin.
 */
struct BinStencil
{
    Rect rect;
    int ix0 = 0;
    int ix1 = -1;
    int iy0 = 0;
    int iy1 = -1;
};

/** 2-D grid of double-valued bins covering a rectangular region. */
class BinGrid
{
  public:
    /**
     * @param region  Placement region covered by the grid.
     * @param nx, ny  Bin counts (must be positive).
     */
    BinGrid(Rect region, int nx, int ny);

    int nx() const { return nx_; }
    int ny() const { return ny_; }
    const Rect &region() const { return region_; }
    double binWidth() const { return binW_; }
    double binHeight() const { return binH_; }
    double binArea() const { return binW_ * binH_; }

    /** Reset every bin to zero. */
    void clear();

    /** Value of bin (ix, iy); bounds-checked via panic. */
    double at(int ix, int iy) const;

    /** Mutable access to bin (ix, iy). */
    double &at(int ix, int iy);

    /** Row-major flat buffer (y-major: index = iy*nx + ix). */
    const std::vector<double> &data() const { return data_; }
    std::vector<double> &data() { return data_; }

    /**
     * Bin x-index containing coordinate @p x, clamped into range.
     *
     * The index is a truncating cast, not std::floor: the two differ
     * only for a negative quotient, which the clamp sends to 0 either
     * way, so the result is floor's for every quotient the cast is
     * defined on. Baseline x86-64 has no rounding instruction, so
     * floor is a libm call, four per stencil in the density loop.
     */
    int
    clampX(double x) const
    {
        const int ix = static_cast<int>((x - region_.lo.x) / binW_);
        return std::clamp(ix, 0, nx_ - 1);
    }

    /** Bin y-index containing coordinate @p y, clamped as clampX(). */
    int
    clampY(double y) const
    {
        const int iy = static_cast<int>((y - region_.lo.y) / binH_);
        return std::clamp(iy, 0, ny_ - 1);
    }

    /**
     * Stencil of @p footprint: the footprint shifted (not clipped) into
     * the region so no charge is lost, clipped only where it is larger
     * than the region, and the bins the result overlaps.
     */
    BinStencil
    stencil(const Rect &footprint) const
    {
        Rect out = footprint;
        // Shift (not clip) so the full charge stays on the grid; this
        // mirrors how the placer clamps instance centers into the region.
        if (out.lo.x < region_.lo.x)
            out = out.translated({region_.lo.x - out.lo.x, 0.0});
        if (out.hi.x > region_.hi.x)
            out = out.translated({region_.hi.x - out.hi.x, 0.0});
        if (out.lo.y < region_.lo.y)
            out = out.translated({0.0, region_.lo.y - out.lo.y});
        if (out.hi.y > region_.hi.y)
            out = out.translated({0.0, region_.hi.y - out.hi.y});
        // If the rect is larger than the region, fall back to clipping.
        BinStencil s;
        s.rect = out.intersect(region_);
        if (s.rect.empty())
            return s;
        s.ix0 = clampX(s.rect.lo.x);
        s.ix1 = clampX(s.rect.hi.x - 1e-12);
        s.iy0 = clampY(s.rect.lo.y);
        s.iy1 = clampY(s.rect.hi.y - 1e-12);
        return s;
    }

    /**
     * Call fn(k, w) for every bin of @p s in row-major order, k being
     * the bin's index in data() and w its overlap area with s.rect
     * (0 where they only touch). Each row's overlap height is formed
     * once; w is exactly the area of the intersection of the bin's
     * rectangle with s.rect.
     */
    template <class Fn>
    void
    forEachOverlap(const BinStencil &s, Fn &&fn) const
    {
        const Rect &r = s.rect;
        for (int iy = s.iy0; iy <= s.iy1; ++iy) {
            const double y0 = region_.lo.y + iy * binH_;
            const double dy =
                std::min(y0 + binH_, r.hi.y) - std::max(y0, r.lo.y);
            const std::size_t row = static_cast<std::size_t>(iy) * nx_;
            for (int ix = s.ix0; ix <= s.ix1; ++ix) {
                const double x0 = region_.lo.x + ix * binW_;
                const double dx =
                    std::min(x0 + binW_, r.hi.x) - std::max(x0, r.lo.x);
                fn(row + static_cast<std::size_t>(ix),
                   (dx <= 0.0 || dy <= 0.0) ? 0.0 : dx * dy);
            }
        }
    }

    /**
     * Add @p amount distributed over the bins of @p s, proportionally
     * to overlap area, into @p bins (a row-major buffer laid out like
     * data()).
     */
    void
    splat(const BinStencil &s, double amount, double *bins) const
    {
        const double total_area = s.rect.area();
        if (total_area <= 0.0)
            return;
        forEachOverlap(s, [&](std::size_t k, double a) {
            const double w = a / total_area;
            if (w > 0.0)
                bins[k] += amount * w;
        });
    }

    /** splat() of @p rect into data(). */
    void
    splat(const Rect &rect, double amount)
    {
        splat(stencil(rect), amount, data_.data());
    }

    /**
     * Overlap-weighted averages of the maps @p fx and @p fy (laid out
     * like data()) over @p s, accumulated in one walk; (0, 0) when the
     * stencil overlaps no bin area.
     */
    Vec2
    gather(const BinStencil &s, const double *fx, const double *fy) const
    {
        double ax = 0.0;
        double ay = 0.0;
        double ws = 0.0;
        forEachOverlap(s, [&](std::size_t k, double w) {
            ax += w * fx[k];
            ay += w * fy[k];
            ws += w;
        });
        return ws > 0.0 ? Vec2(ax / ws, ay / ws) : Vec2(0.0, 0.0);
    }

    /** Sum over all bins. */
    double total() const;

  private:
    Rect region_;
    int nx_;
    int ny_;
    double binW_;
    double binH_;
    std::vector<double> data_;
};

} // namespace qplacer

#endif // QPLACER_GEOMETRY_BIN_GRID_HPP
