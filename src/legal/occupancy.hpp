/**
 * @file
 * Cell-based occupancy grid used by the legalizers.
 *
 * All component footprints in the flow (padded qubits: 800 um, padded
 * segments: l_b + 100 um) are multiples of 100 um, so a 100 um cell grid
 * represents any legal arrangement exactly.
 *
 * Scale: alongside the per-cell owner map the grid maintains a
 * word-packed occupancy bitset (one bit per cell). canPlace() tests a
 * footprint span with a handful of masked word reads -- ~O(span/64)
 * instead of O(span). nextPlaceableX()/nextPlaceableY() expose "first
 * free slot at or after" scans so the spiral legalizer can skip
 * fully-occupied stretches of a ring wholesale. Every fast query is
 * exact: the bitset mirrors the owner map bit for bit, so results are
 * identical to a per-cell owner scan (tests/legal/test_fast_equivalence
 * keeps that scan as its oracle).
 */

#ifndef QPLACER_LEGAL_OCCUPANCY_HPP
#define QPLACER_LEGAL_OCCUPANCY_HPP

#include <cstdint>
#include <vector>

#include "geometry/rect.hpp"

namespace qplacer {

/**
 * Owner id of cells reserved by block() (multi-die cut gaps). Distinct
 * from -1 (free) and from any instance id, and never matched by a
 * non-negative ignore id, so every placement probe rejects blocked
 * cells naturally.
 */
constexpr std::int32_t kBlockedOwner = -2;

/** Grid of ownership cells over the placement region. */
class OccupancyGrid
{
  public:
    /**
     * @param region  Placement region.
     * @param cell_um Cell edge (must divide all footprints used).
     */
    OccupancyGrid(Rect region, double cell_um);

    /** Inclusive cell index ranges of a footprint (may be off-grid). */
    struct CellSpan
    {
        int x0, x1, y0, y1;
    };

    /** True if @p rect lies in-region and covers only free cells. */
    bool canPlace(const Rect &rect) const;

    /**
     * Like canPlace() but cells owned by @p ignore_id count as free
     * (used when testing moves of an already-placed instance).
     */
    bool canPlaceIgnoring(const Rect &rect, std::int32_t ignore_id) const;

    /** Mark @p rect as owned by @p id. panics on overlap. */
    void occupy(const Rect &rect, std::int32_t id);

    /**
     * Reserve the cells of @p rect as kBlockedOwner (keep-out, e.g. a
     * multi-die cut gap). Cells already owned by an instance panic;
     * out-of-grid parts are clipped. Blocked cells are never returned
     * by ownersIn() and no ignore id frees them.
     */
    void block(const Rect &rect);

    /** Release cells of @p rect owned by @p id. */
    void release(const Rect &rect, std::int32_t id);

    /**
     * Owners overlapping @p rect, deduplicated, in first-encountered
     * (row-major scan) order -- the order the integration legalizer's
     * swap-candidate loop depends on.
     */
    std::vector<std::int32_t> ownersIn(const Rect &rect) const;

    /**
     * Allocation-free ownersIn: @p out is cleared and receives the
     * owners overlapping @p rect, deduplicated via sort+unique, in
     * ascending id order. For order-insensitive set probes (the tau
     * resonance checks) on the hot path.
     */
    void ownersIn(const Rect &rect, std::vector<std::int32_t> &out) const;

    /**
     * Snap a desired center so that a w x h rect is cell-aligned and
     * inside the region.
     */
    Vec2 snapCenter(Vec2 desired, double w, double h) const;

    /** Cell index span of @p rect (unclamped; callers bound-check). */
    CellSpan cellSpanOf(const Rect &rect) const;

    /**
     * Smallest x0 >= @p x_from such that cells [x0, x0 + span_w) x
     * [y0, y1] are all free and x0 + span_w <= nx(); nx() if no such
     * start exists. Pure occupancy (no region or ignore-id semantics);
     * rows are clamped to the grid. Powers the spiral ring skip.
     */
    int nextPlaceableX(int y0, int y1, int x_from, int span_w) const;

    /** Vertical counterpart of nextPlaceableX (returns ny() if none). */
    int nextPlaceableY(int x0, int x1, int y_from, int span_h) const;

    double cellUm() const { return cellUm_; }
    const Rect &region() const { return region_; }
    int nx() const { return nx_; }
    int ny() const { return ny_; }

  private:
    CellSpan spanOf(const Rect &rect) const;
    bool inRegion(const Rect &rect) const;

    /** Span test: masked word reads of the occupancy bitset. */
    bool spanFree(const CellSpan &s, std::int32_t ignore_id) const;

    Rect region_;
    double cellUm_;
    int nx_;
    int ny_;
    std::vector<std::int32_t> owner_;

    // Occupancy bitset: wordsPerRow_ words per row, bit ix%64 of word
    // (iy * wordsPerRow_ + ix/64) set iff the cell is owned.
    int wordsPerRow_;
    std::vector<std::uint64_t> occ_;
};

} // namespace qplacer

#endif // QPLACER_LEGAL_OCCUPANCY_HPP
