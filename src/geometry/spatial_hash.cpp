#include "geometry/spatial_hash.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace qplacer {

SpatialHash::SpatialHash(Rect region, double cell_size)
    : region_(region), cellSize_(cell_size)
{
    if (cell_size <= 0.0)
        panic("SpatialHash: non-positive cell size");
    if (region.empty())
        panic("SpatialHash: empty region");
    nx_ = std::max(1, static_cast<int>(
                          std::ceil(region.width() / cell_size)));
    ny_ = std::max(1, static_cast<int>(
                          std::ceil(region.height() / cell_size)));
    buckets_.resize(static_cast<std::size_t>(nx_) * ny_);
}

std::size_t
SpatialHash::bucketOf(Vec2 pos) const
{
    int ix = static_cast<int>((pos.x - region_.lo.x) / cellSize_);
    int iy = static_cast<int>((pos.y - region_.lo.y) / cellSize_);
    ix = std::clamp(ix, 0, nx_ - 1);
    iy = std::clamp(iy, 0, ny_ - 1);
    return static_cast<std::size_t>(iy) * nx_ + ix;
}

void
SpatialHash::insert(std::int32_t id, Vec2 pos)
{
    buckets_[bucketOf(pos)].push_back(Entry{id, pos});
    ++count_;
}

std::vector<std::int32_t>
SpatialHash::query(Vec2 center, double radius) const
{
    std::vector<std::int32_t> out;
    const double r2 = radius * radius;
    const int ix0 = std::clamp(
        static_cast<int>((center.x - radius - region_.lo.x) / cellSize_), 0,
        nx_ - 1);
    const int ix1 = std::clamp(
        static_cast<int>((center.x + radius - region_.lo.x) / cellSize_), 0,
        nx_ - 1);
    const int iy0 = std::clamp(
        static_cast<int>((center.y - radius - region_.lo.y) / cellSize_), 0,
        ny_ - 1);
    const int iy1 = std::clamp(
        static_cast<int>((center.y + radius - region_.lo.y) / cellSize_), 0,
        ny_ - 1);
    for (int iy = iy0; iy <= iy1; ++iy) {
        for (int ix = ix0; ix <= ix1; ++ix) {
            const auto &bucket =
                buckets_[static_cast<std::size_t>(iy) * nx_ + ix];
            for (const Entry &e : bucket) {
                if ((e.pos - center).normSq() <= r2)
                    out.push_back(e.id);
            }
        }
    }
    return out;
}

std::vector<std::int32_t>
SpatialHash::queryRect(const Rect &box) const
{
    std::vector<std::int32_t> out;
    const int ix0 = std::clamp(
        static_cast<int>((box.lo.x - region_.lo.x) / cellSize_), 0, nx_ - 1);
    const int ix1 = std::clamp(
        static_cast<int>((box.hi.x - region_.lo.x) / cellSize_), 0, nx_ - 1);
    const int iy0 = std::clamp(
        static_cast<int>((box.lo.y - region_.lo.y) / cellSize_), 0, ny_ - 1);
    const int iy1 = std::clamp(
        static_cast<int>((box.hi.y - region_.lo.y) / cellSize_), 0, ny_ - 1);
    for (int iy = iy0; iy <= iy1; ++iy) {
        for (int ix = ix0; ix <= ix1; ++ix) {
            const auto &bucket =
                buckets_[static_cast<std::size_t>(iy) * nx_ + ix];
            for (const Entry &e : bucket) {
                if (box.contains(e.pos))
                    out.push_back(e.id);
            }
        }
    }
    return out;
}

} // namespace qplacer
