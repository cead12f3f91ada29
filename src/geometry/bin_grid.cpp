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

Rect
BinGrid::binRect(int ix, int iy) const
{
    const double x0 = region_.lo.x + ix * binW_;
    const double y0 = region_.lo.y + iy * binH_;
    return Rect(x0, y0, x0 + binW_, y0 + binH_);
}

Vec2
BinGrid::binCenter(int ix, int iy) const
{
    return binRect(ix, iy).center();
}

Rect
BinGrid::clampRect(const Rect &r) const
{
    Rect out = r;
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
    return out.intersect(region_);
}

void
BinGrid::splat(const Rect &rect, double amount, double *bins) const
{
    const Rect r = clampRect(rect);
    if (r.empty())
        return;
    const double total_area = r.area();
    if (total_area <= 0.0)
        return;
    const int ix0 = clampX(r.lo.x);
    const int ix1 = clampX(r.hi.x - 1e-12);
    const int iy0 = clampY(r.lo.y);
    const int iy1 = clampY(r.hi.y - 1e-12);
    for (int iy = iy0; iy <= iy1; ++iy) {
        for (int ix = ix0; ix <= ix1; ++ix) {
            const double w = binRect(ix, iy).overlapArea(r) / total_area;
            if (w > 0.0)
                bins[static_cast<std::size_t>(iy) * nx_ + ix] +=
                    amount * w;
        }
    }
}

double
BinGrid::sample(const Rect &rect) const
{
    const Rect r = clampRect(rect);
    if (r.empty())
        return 0.0;
    const int ix0 = clampX(r.lo.x);
    const int ix1 = clampX(r.hi.x - 1e-12);
    const int iy0 = clampY(r.lo.y);
    const int iy1 = clampY(r.hi.y - 1e-12);
    double acc = 0.0;
    double wsum = 0.0;
    for (int iy = iy0; iy <= iy1; ++iy) {
        for (int ix = ix0; ix <= ix1; ++ix) {
            const double w = binRect(ix, iy).overlapArea(r);
            acc += w * data_[static_cast<std::size_t>(iy) * nx_ + ix];
            wsum += w;
        }
    }
    return wsum > 0.0 ? acc / wsum : 0.0;
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
