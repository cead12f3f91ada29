/**
 * @file
 * Uniform-grid spatial hash for neighbour queries.
 *
 * The hotspot evaluator and the integration legalizer need "which
 * instances are near p" queries; this keeps them O(neighbours) instead of
 * all-pairs.
 */

#ifndef QPLACER_GEOMETRY_SPATIAL_HASH_HPP
#define QPLACER_GEOMETRY_SPATIAL_HASH_HPP

#include <cstdint>
#include <vector>

#include "geometry/rect.hpp"

namespace qplacer {

/** Buckets item ids by position on a uniform grid. */
class SpatialHash
{
  public:
    /**
     * @param region    Area covered (items outside are clamped in).
     * @param cell_size Bucket edge length; choose ~ the query radius.
     */
    SpatialHash(Rect region, double cell_size);

    /** Insert item @p id at @p pos. */
    void insert(std::int32_t id, Vec2 pos);

    /** Ids of items within @p radius of @p center (Euclidean). */
    std::vector<std::int32_t> query(Vec2 center, double radius) const;

    /** Ids of items whose position lies inside @p box. */
    std::vector<std::int32_t> queryRect(const Rect &box) const;

    /** Total number of stored items. */
    std::size_t size() const { return count_; }

  private:
    struct Entry
    {
        std::int32_t id;
        Vec2 pos;
    };

    std::size_t bucketOf(Vec2 pos) const;

    Rect region_;
    double cellSize_;
    int nx_;
    int ny_;
    std::vector<std::vector<Entry>> buckets_;
    std::size_t count_ = 0;
};

} // namespace qplacer

#endif // QPLACER_GEOMETRY_SPATIAL_HASH_HPP
