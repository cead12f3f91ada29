/**
 * @file
 * Uniform bin grid over the placement region.
 *
 * The density force rasterizes instance areas into this grid; the
 * legalizers reuse it as an occupancy map. Bin counts are powers of two so
 * the spectral Poisson solver can run FFT-based transforms directly on the
 * density map.
 */

#ifndef QPLACER_GEOMETRY_BIN_GRID_HPP
#define QPLACER_GEOMETRY_BIN_GRID_HPP

#include <vector>

#include "geometry/rect.hpp"

namespace qplacer {

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

    /** Bin x-index containing coordinate @p x, clamped into range. */
    int clampX(double x) const;

    /** Bin y-index containing coordinate @p y, clamped into range. */
    int clampY(double y) const;

    /** Rectangle of bin (ix, iy). */
    Rect binRect(int ix, int iy) const;

    /** Center of bin (ix, iy). */
    Vec2 binCenter(int ix, int iy) const;

    /**
     * Add @p amount distributed over the bins overlapping @p rect,
     * proportionally to overlap area. Parts of @p rect outside the region
     * are clamped onto the boundary bins so no charge is lost.
     */
    void splat(const Rect &rect, double amount)
    {
        splat(rect, amount, data_.data());
    }

    /** splat() into @p bins, a row-major buffer laid out like data(). */
    void splat(const Rect &rect, double amount, double *bins) const;

    /**
     * Area-weighted average of the grid over @p rect (e.g. average
     * electric field over an instance footprint).
     */
    double sample(const Rect &rect) const;

    /** Sum over all bins. */
    double total() const;

  private:
    /** Clamp @p r into the region, preserving area by shifting. */
    Rect clampRect(const Rect &r) const;

    Rect region_;
    int nx_;
    int ny_;
    double binW_;
    double binH_;
    std::vector<double> data_;
};

} // namespace qplacer

#endif // QPLACER_GEOMETRY_BIN_GRID_HPP
