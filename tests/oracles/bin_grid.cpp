#include "oracles/oracles.hpp"

namespace qplacer::oracle {

namespace {

/** Rectangle of bin (ix, iy). */
Rect
binRect(const BinGrid &grid, int ix, int iy)
{
    const double x0 = grid.region().lo.x + ix * grid.binWidth();
    const double y0 = grid.region().lo.y + iy * grid.binHeight();
    return Rect(x0, y0, x0 + grid.binWidth(), y0 + grid.binHeight());
}

/** @p r shifted into the grid's region, clipped where it is larger. */
Rect
clampRect(const BinGrid &grid, const Rect &r)
{
    const Rect &region = grid.region();
    Rect out = r;
    if (out.lo.x < region.lo.x)
        out = out.translated({region.lo.x - out.lo.x, 0.0});
    if (out.hi.x > region.hi.x)
        out = out.translated({region.hi.x - out.hi.x, 0.0});
    if (out.lo.y < region.lo.y)
        out = out.translated({0.0, region.lo.y - out.lo.y});
    if (out.hi.y > region.hi.y)
        out = out.translated({0.0, region.hi.y - out.hi.y});
    return out.intersect(region);
}

} // namespace

void
binSplat(const BinGrid &grid, const Rect &rect, double amount,
         double *bins)
{
    const Rect r = clampRect(grid, rect);
    if (r.empty())
        return;
    const double total_area = r.area();
    if (total_area <= 0.0)
        return;
    const int ix0 = grid.clampX(r.lo.x);
    const int ix1 = grid.clampX(r.hi.x - 1e-12);
    const int iy0 = grid.clampY(r.lo.y);
    const int iy1 = grid.clampY(r.hi.y - 1e-12);
    for (int iy = iy0; iy <= iy1; ++iy) {
        for (int ix = ix0; ix <= ix1; ++ix) {
            const double w =
                binRect(grid, ix, iy).overlapArea(r) / total_area;
            if (w > 0.0)
                bins[static_cast<std::size_t>(iy) * grid.nx() + ix] +=
                    amount * w;
        }
    }
}

double
binSample(const BinGrid &grid, const std::vector<double> &map,
          const Rect &rect)
{
    const Rect r = clampRect(grid, rect);
    if (r.empty())
        return 0.0;
    const int ix0 = grid.clampX(r.lo.x);
    const int ix1 = grid.clampX(r.hi.x - 1e-12);
    const int iy0 = grid.clampY(r.lo.y);
    const int iy1 = grid.clampY(r.hi.y - 1e-12);
    double acc = 0.0;
    double wsum = 0.0;
    for (int iy = iy0; iy <= iy1; ++iy) {
        for (int ix = ix0; ix <= ix1; ++ix) {
            const double w = binRect(grid, ix, iy).overlapArea(r);
            acc += w * map[static_cast<std::size_t>(iy) * grid.nx() + ix];
            wsum += w;
        }
    }
    return wsum > 0.0 ? acc / wsum : 0.0;
}

} // namespace qplacer::oracle
