#include "geometry/bin_grid.hpp"

#include <algorithm>

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

double
BinGrid::total() const
{
    double acc = 0.0;
    for (double v : data_)
        acc += v;
    return acc;
}

} // namespace qplacer
