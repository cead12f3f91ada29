#include "oracles/oracles.hpp"

#include <algorithm>
#include <cmath>

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

int
floorBinIndex(double v, double lo, double width, int n)
{
    return std::clamp(static_cast<int>(std::floor((v - lo) / width)), 0,
                      n - 1);
}

BinStencil
binStencil(const BinGrid &grid, const Rect &rect)
{
    BinStencil s;
    s.rect = clampRect(grid, rect);
    if (s.rect.empty())
        return s;
    const Rect &reg = grid.region();
    const double bw = grid.binWidth();
    const double bh = grid.binHeight();
    s.ix0 = floorBinIndex(s.rect.lo.x, reg.lo.x, bw, grid.nx());
    s.ix1 = floorBinIndex(s.rect.hi.x - 1e-12, reg.lo.x, bw, grid.nx());
    s.iy0 = floorBinIndex(s.rect.lo.y, reg.lo.y, bh, grid.ny());
    s.iy1 = floorBinIndex(s.rect.hi.y - 1e-12, reg.lo.y, bh, grid.ny());
    return s;
}

void
binSplat(const BinGrid &grid, const Rect &rect, double amount,
         double *bins)
{
    const BinStencil s = binStencil(grid, rect);
    const Rect &r = s.rect;
    if (r.empty())
        return;
    const double total_area = r.area();
    if (total_area <= 0.0)
        return;
    for (int iy = s.iy0; iy <= s.iy1; ++iy) {
        for (int ix = s.ix0; ix <= s.ix1; ++ix) {
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
    const BinStencil s = binStencil(grid, rect);
    const Rect &r = s.rect;
    if (r.empty())
        return 0.0;
    double acc = 0.0;
    double wsum = 0.0;
    for (int iy = s.iy0; iy <= s.iy1; ++iy) {
        for (int ix = s.ix0; ix <= s.ix1; ++ix) {
            const double w = binRect(grid, ix, iy).overlapArea(r);
            acc += w * map[static_cast<std::size_t>(iy) * grid.nx() + ix];
            wsum += w;
        }
    }
    return wsum > 0.0 ? acc / wsum : 0.0;
}

} // namespace qplacer::oracle
