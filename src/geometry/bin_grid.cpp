#include "geometry/bin_grid.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace qplacer {

BinGrid::BinGrid(Rect region, int nx, int ny)
    : region_(region), nx_(nx), ny_(ny)
{
    if (nx <= 0 || ny <= 0)
        panic(str("BinGrid: non-positive bin count ", nx, "x", ny));
    if (region.empty())
        panic("BinGrid: empty region");
    binW_ = region.width() / nx;
    binH_ = region.height() / ny;
    data_.assign(static_cast<std::size_t>(nx) * ny, 0.0);
}

void
BinGrid::clear()
{
    std::fill(data_.begin(), data_.end(), 0.0);
}

double
BinGrid::at(int ix, int iy) const
{
    if (ix < 0 || ix >= nx_ || iy < 0 || iy >= ny_)
        panic(str("BinGrid::at out of range (", ix, ", ", iy, ")"));
    return data_[static_cast<std::size_t>(iy) * nx_ + ix];
}

double &
BinGrid::at(int ix, int iy)
{
    if (ix < 0 || ix >= nx_ || iy < 0 || iy >= ny_)
        panic(str("BinGrid::at out of range (", ix, ", ", iy, ")"));
    return data_[static_cast<std::size_t>(iy) * nx_ + ix];
}

int
BinGrid::clampX(double x) const
{
    const int ix = static_cast<int>(std::floor((x - region_.lo.x) / binW_));
    return std::clamp(ix, 0, nx_ - 1);
}

int
BinGrid::clampY(double y) const
{
    const int iy = static_cast<int>(std::floor((y - region_.lo.y) / binH_));
    return std::clamp(iy, 0, ny_ - 1);
}

BinStencil
BinGrid::stencil(const Rect &footprint) const
{
    Rect out = footprint;
    // Shift (not clip) so the full charge stays on the grid; this mirrors
    // how the placer clamps instance centers into the region.
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

double
BinGrid::total() const
{
    double acc = 0.0;
    for (double v : data_)
        acc += v;
    return acc;
}

} // namespace qplacer
