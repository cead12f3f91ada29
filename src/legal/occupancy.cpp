#include "legal/occupancy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/logging.hpp"

namespace qplacer {

namespace {
constexpr double kEps = 1e-6;
constexpr std::uint64_t kAllOnes = ~std::uint64_t(0);

/** Bits [lo, hi] of a word (0 <= lo <= hi <= 63). */
std::uint64_t
bitRange(int lo, int hi)
{
    const std::uint64_t upto = hi == 63 ? kAllOnes
                                        : (std::uint64_t(1) << (hi + 1)) - 1;
    return upto & (kAllOnes << lo);
}
} // namespace

OccupancyGrid::OccupancyGrid(Rect region, double cell_um)
    : region_(region), cellUm_(cell_um)
{
    if (cell_um <= 0.0)
        panic("OccupancyGrid: non-positive cell size");
    nx_ = static_cast<int>(std::floor(region.width() / cell_um + kEps));
    ny_ = static_cast<int>(std::floor(region.height() / cell_um + kEps));
    if (nx_ <= 0 || ny_ <= 0)
        panic("OccupancyGrid: region smaller than one cell");
    owner_.assign(static_cast<std::size_t>(nx_) * ny_, -1);
    wordsPerRow_ = (nx_ + 63) / 64;
    occ_.assign(static_cast<std::size_t>(wordsPerRow_) * ny_, 0);
}

OccupancyGrid::CellSpan
OccupancyGrid::spanOf(const Rect &rect) const
{
    CellSpan s;
    s.x0 = static_cast<int>(
        std::floor((rect.lo.x - region_.lo.x) / cellUm_ + kEps));
    s.y0 = static_cast<int>(
        std::floor((rect.lo.y - region_.lo.y) / cellUm_ + kEps));
    s.x1 = static_cast<int>(
        std::ceil((rect.hi.x - region_.lo.x) / cellUm_ - kEps)) - 1;
    s.y1 = static_cast<int>(
        std::ceil((rect.hi.y - region_.lo.y) / cellUm_ - kEps)) - 1;
    return s;
}

OccupancyGrid::CellSpan
OccupancyGrid::cellSpanOf(const Rect &rect) const
{
    return spanOf(rect);
}

bool
OccupancyGrid::inRegion(const Rect &rect) const
{
    return rect.lo.x >= region_.lo.x - kEps &&
           rect.lo.y >= region_.lo.y - kEps &&
           rect.hi.x <= region_.hi.x + kEps &&
           rect.hi.y <= region_.hi.y + kEps;
}

bool
OccupancyGrid::canPlace(const Rect &rect) const
{
    // -1 as the "ignore nothing" sentinel: owner -1 cells are free
    // anyway, and it can never alias kBlockedOwner.
    return canPlaceIgnoring(rect, -1);
}

bool
OccupancyGrid::canPlaceIgnoring(const Rect &rect,
                                std::int32_t ignore_id) const
{
    if (!inRegion(rect))
        return false;
    CellSpan s = spanOf(rect);
    s.x0 = std::max(0, s.x0);
    s.y0 = std::max(0, s.y0);
    s.x1 = std::min(nx_ - 1, s.x1);
    s.y1 = std::min(ny_ - 1, s.y1);
    if (s.x0 > s.x1 || s.y0 > s.y1)
        return true;
    return spanFree(s, ignore_id);
}

bool
OccupancyGrid::spanFree(const CellSpan &s, std::int32_t ignore_id) const
{
    const int w0 = s.x0 / 64;
    const int w1 = s.x1 / 64;
    for (int iy = s.y0; iy <= s.y1; ++iy) {
        const std::uint64_t *row =
            occ_.data() + static_cast<std::size_t>(iy) * wordsPerRow_;
        for (int w = w0; w <= w1; ++w) {
            std::uint64_t mask = kAllOnes;
            if (w == w0 || w == w1) {
                const int lo = w == w0 ? s.x0 & 63 : 0;
                const int hi = w == w1 ? s.x1 & 63 : 63;
                mask = bitRange(lo, hi);
            }
            std::uint64_t hit = row[w] & mask;
            if (!hit)
                continue;
            if (ignore_id < 0)
                return false;
            // Occupied cells: free only if every one is the ignored
            // instance (visit set bits only).
            while (hit) {
                const int b = std::countr_zero(hit);
                hit &= hit - 1;
                const std::int32_t o =
                    owner_[static_cast<std::size_t>(iy) * nx_ + w * 64 +
                           b];
                if (o != ignore_id)
                    return false;
            }
        }
    }
    return true;
}

void
OccupancyGrid::occupy(const Rect &rect, std::int32_t id)
{
    if (!inRegion(rect))
        panic("OccupancyGrid::occupy: rect outside region");
    const CellSpan s = spanOf(rect);
    for (int iy = s.y0; iy <= s.y1; ++iy) {
        for (int ix = s.x0; ix <= s.x1; ++ix) {
            if (ix < 0 || ix >= nx_ || iy < 0 || iy >= ny_)
                continue;
            std::int32_t &o =
                owner_[static_cast<std::size_t>(iy) * nx_ + ix];
            if (o != -1)
                panic(str("OccupancyGrid::occupy: overlap at cell (", ix,
                          ", ", iy, ") owned by ", o));
            o = id;
            occ_[static_cast<std::size_t>(iy) * wordsPerRow_ + ix / 64] |=
                std::uint64_t(1) << (ix & 63);
        }
    }
}

void
OccupancyGrid::block(const Rect &rect)
{
    const CellSpan s = spanOf(rect);
    for (int iy = std::max(0, s.y0); iy <= std::min(ny_ - 1, s.y1); ++iy) {
        for (int ix = std::max(0, s.x0); ix <= std::min(nx_ - 1, s.x1);
             ++ix) {
            std::int32_t &o =
                owner_[static_cast<std::size_t>(iy) * nx_ + ix];
            if (o >= 0)
                panic(str("OccupancyGrid::block: cell (", ix, ", ", iy,
                          ") owned by instance ", o));
            o = kBlockedOwner;
            occ_[static_cast<std::size_t>(iy) * wordsPerRow_ + ix / 64] |=
                std::uint64_t(1) << (ix & 63);
        }
    }
}

void
OccupancyGrid::release(const Rect &rect, std::int32_t id)
{
    const CellSpan s = spanOf(rect);
    for (int iy = std::max(0, s.y0); iy <= std::min(ny_ - 1, s.y1); ++iy) {
        for (int ix = std::max(0, s.x0); ix <= std::min(nx_ - 1, s.x1);
             ++ix) {
            std::int32_t &o =
                owner_[static_cast<std::size_t>(iy) * nx_ + ix];
            if (o == id) {
                o = -1;
                occ_[static_cast<std::size_t>(iy) * wordsPerRow_ +
                     ix / 64] &= ~(std::uint64_t(1) << (ix & 63));
            }
        }
    }
}

std::vector<std::int32_t>
OccupancyGrid::ownersIn(const Rect &rect) const
{
    // Set-bit walk in row-major order, then first-encounter dedup in
    // O(k log k) via sort+unique on (owner, position) pairs -- the
    // swap-candidate loop of the integration legalizer depends on the
    // scan order, so a plain sorted dedup would change layouts.
    std::vector<std::int32_t> out;
    const CellSpan s = spanOf(rect);
    const int x0 = std::max(0, s.x0);
    const int x1 = std::min(nx_ - 1, s.x1);
    const int y0 = std::max(0, s.y0);
    const int y1 = std::min(ny_ - 1, s.y1);
    if (x0 > x1 || y0 > y1)
        return out;
    for (int iy = y0; iy <= y1; ++iy) {
        const std::uint64_t *row =
            occ_.data() + static_cast<std::size_t>(iy) * wordsPerRow_;
        for (int w = x0 / 64; w <= x1 / 64; ++w) {
            std::uint64_t hit =
                row[w] & bitRange(w == x0 / 64 ? x0 & 63 : 0,
                                  w == x1 / 64 ? x1 & 63 : 63);
            while (hit) {
                const int b = std::countr_zero(hit);
                hit &= hit - 1;
                const std::int32_t o =
                    owner_[static_cast<std::size_t>(iy) * nx_ + w * 64 +
                           b];
                if (o >= 0 && (out.empty() || out.back() != o))
                    out.push_back(o);
            }
        }
    }
    std::vector<std::pair<std::int32_t, int>> keyed(out.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        keyed[i] = {out[i], static_cast<int>(i)};
    std::sort(keyed.begin(), keyed.end());
    keyed.erase(std::unique(keyed.begin(), keyed.end(),
                            [](const auto &a, const auto &b) {
                                return a.first == b.first;
                            }),
                keyed.end());
    std::sort(keyed.begin(), keyed.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });
    out.resize(keyed.size());
    for (std::size_t i = 0; i < keyed.size(); ++i)
        out[i] = keyed[i].first;
    return out;
}

void
OccupancyGrid::ownersIn(const Rect &rect,
                        std::vector<std::int32_t> &out) const
{
    out.clear();
    const CellSpan s = spanOf(rect);
    const int x0 = std::max(0, s.x0);
    const int x1 = std::min(nx_ - 1, s.x1);
    const int y0 = std::max(0, s.y0);
    const int y1 = std::min(ny_ - 1, s.y1);
    if (x0 > x1 || y0 > y1)
        return;
    for (int iy = y0; iy <= y1; ++iy) {
        const std::uint64_t *row =
            occ_.data() + static_cast<std::size_t>(iy) * wordsPerRow_;
        for (int w = x0 / 64; w <= x1 / 64; ++w) {
            std::uint64_t hit =
                row[w] & bitRange(w == x0 / 64 ? x0 & 63 : 0,
                                  w == x1 / 64 ? x1 & 63 : 63);
            while (hit) {
                const int b = std::countr_zero(hit);
                hit &= hit - 1;
                const std::int32_t o =
                    owner_[static_cast<std::size_t>(iy) * nx_ + w * 64 +
                           b];
                if (o >= 0 && (out.empty() || out.back() != o))
                    out.push_back(o);
            }
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

int
OccupancyGrid::nextPlaceableX(int y0, int y1, int x_from, int span_w) const
{
    y0 = std::max(0, y0);
    y1 = std::min(ny_ - 1, y1);
    const int x = std::max(0, x_from);
    if (span_w <= 0 || y0 > y1 || x + span_w > nx_)
        return nx_;
    const int w_first = x / 64;
    const int w_last = (nx_ - 1) / 64;
    int run = 0;
    for (int w = w_first; w <= w_last; ++w) {
        std::uint64_t occ = 0;
        for (int iy = y0; iy <= y1; ++iy)
            occ |= occ_[static_cast<std::size_t>(iy) * wordsPerRow_ + w];
        if (w == w_first && (x & 63))
            occ |= (std::uint64_t(1) << (x & 63)) - 1;
        if (w == w_last && (nx_ & 63))
            occ |= kAllOnes << (nx_ & 63);
        int b = 0;
        while (b < 64) {
            const std::uint64_t shifted = occ >> b;
            const int zeros = shifted == 0
                                  ? 64 - b
                                  : std::countr_zero(shifted);
            run += zeros;
            b += zeros;
            if (run >= span_w)
                return w * 64 + b - run;
            if (b >= 64)
                break;
            b += std::countr_one(shifted >> zeros);
            run = 0;
        }
    }
    return nx_;
}

int
OccupancyGrid::nextPlaceableY(int x0, int x1, int y_from, int span_h) const
{
    x0 = std::max(0, x0);
    x1 = std::min(nx_ - 1, x1);
    const int y = std::max(0, y_from);
    if (span_h <= 0 || x0 > x1 || y + span_h > ny_)
        return ny_;
    const int w0 = x0 / 64;
    const int w1 = x1 / 64;
    int run = 0;
    for (int iy = y; iy < ny_; ++iy) {
        const std::uint64_t *row =
            occ_.data() + static_cast<std::size_t>(iy) * wordsPerRow_;
        bool free = true;
        for (int w = w0; free && w <= w1; ++w) {
            const std::uint64_t mask =
                bitRange(w == w0 ? x0 & 63 : 0, w == w1 ? x1 & 63 : 63);
            free = (row[w] & mask) == 0;
        }
        if (free) {
            if (++run >= span_h)
                return iy - span_h + 1;
        } else {
            run = 0;
        }
    }
    return ny_;
}

Vec2
OccupancyGrid::snapCenter(Vec2 desired, double w, double h) const
{
    // Align the lower-left corner to the cell lattice.
    double lx = desired.x - w / 2.0;
    double ly = desired.y - h / 2.0;
    lx = region_.lo.x +
         std::round((lx - region_.lo.x) / cellUm_) * cellUm_;
    ly = region_.lo.y +
         std::round((ly - region_.lo.y) / cellUm_) * cellUm_;
    lx = std::clamp(lx, region_.lo.x, region_.hi.x - w);
    ly = std::clamp(ly, region_.lo.y, region_.hi.y - h);
    return Vec2(lx + w / 2.0, ly + h / 2.0);
}

} // namespace qplacer
