/**
 * @file
 * Frequency repulsive force F(i, j; x, y) (Eq. 9/10).
 *
 * Near-resonant instance pairs (same-resonator pairs excluded) repel
 * each other with a Coulomb 1/r potential, so minimizing the penalty
 * drives them apart spatially. The potential is truncated at a per-pair
 * radius. Sorted by frequency, the instances split into bands wherever
 * two consecutive frequencies are Delta_c or more apart, so no resonant
 * pair straddles two bands. Each evaluation buckets every band's
 * positions into the band's own uniform grid (cells sorted by
 * frequency), whose cell is the band's largest pair radius, and each
 * instance scans only its own band's cells around it, one contiguous
 * slot run per grid row: O(n) in the instance count.
 *
 * Each pair's body (distance, clamp, d^3 division) runs once, in
 * parallel, from its lower end, which stores the push; one serial
 * scatter then adds every push to its lower end and subtracts it from
 * its higher end, pairs by lower end and then higher, which is the
 * order of a serial loop over the pairs.
 */

#ifndef QPLACER_CORE_FREQ_FORCE_HPP
#define QPLACER_CORE_FREQ_FORCE_HPP

#include <cstdint>
#include <vector>

#include "geometry/vec2.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

class ThreadPool;

/** Coulomb-style repulsion between near-resonant instances. */
class FreqForceModel
{
  public:
    /**
     * The placer's cutoff factor: 0.8 puts the cutoff comfortably past
     * the hotspot adjacency threshold, leaving margin for legalization
     * displacement.
     */
    static constexpr double kCutoffFactor = 0.8;

    /**
     * @param netlist       Netlist (read once, at construction).
     * @param threshold_hz  Detuning threshold Delta_c.
     * @param cutoff_factor Pairs further apart than
     *                      cutoff_factor * (size_i + size_j) feel no
     *                      force; this truncation keeps the repulsion a
     *                      local separation constraint instead of a
     *                      long-range scatter force. A band's largest
     *                      such radius is the cell size of the band's
     *                      neighbour grid.
     *
     * The per-pair strength is scaled by the geometric mean of the two
     * padded footprints so that large components repel proportionally.
     *
     * @param pool Worker pool (null = serial; not owned). Each pair
     *             is formed by its lower end and the pushes are summed
     *             serially in pair order, so any pool size gives the
     *             serial bits.
     */
    FreqForceModel(const Netlist &netlist, double threshold_hz,
                   double cutoff_factor, ThreadPool *pool = nullptr);

    /**
     * Gradient of the truncated Coulomb potential
     *   U = sum_pairs s_ij * (1/dist - 1/R_ij)  for dist < R_ij.
     * Distances are clamped below at a fraction of the instance size to
     * keep the force finite when instances coincide. Instances at
     * non-finite positions feel no force.
     */
    void evaluate(const std::vector<Vec2> &positions,
                  std::vector<Vec2> &gradient) const;

  private:
    /** One bucketed instance; a cell's slots ascend in frequency. */
    struct Slot
    {
        double freqHz;
        Vec2 pos;
        std::int32_t id;
    };

    /** A run of byFreq_ that no resonant pair leaves. */
    struct Band
    {
        std::size_t begin; ///< First byFreq_ index.
        std::size_t end;   ///< One past the last.
        double radius;     ///< Largest pair radius within the band.
    };

    /** A band's uniform cell grid over its positions' bounding box. */
    struct Grid
    {
        Vec2 lo;
        double cell = 0.0;
        int nx = 0; ///< 0 when none of the band's positions is finite.
        int ny = 0;
        std::size_t base = 0; ///< Index of the band's first cell.
    };

    /** One pair's push delta * coef onto i (j feels its negation). */
    struct Pair
    {
        std::int32_t i; ///< Lower end.
        std::int32_t j; ///< Higher end.
        Vec2 push;
    };

    /** One chunk's pairs, formed by their lower ends (see evaluate). */
    struct PairLane
    {
        std::vector<std::int32_t> near; ///< One instance's partners.
        std::vector<Pair> pairs;
    };

    /**
     * Bucket the finite positions into slots_ by band, cell, then
     * frequency; cellOf_ is -1 for a non-finite position.
     */
    void bucketPositions(const std::vector<Vec2> &positions) const;

    /**
     * Append to @p out every j > i resonant with i, not on i's
     * resonator, within the pair radius (up to a tiny slack).
     */
    void resonantNeighbours(const std::vector<Vec2> &positions,
                            std::size_t i,
                            std::vector<std::int32_t> &out) const;

    std::vector<double> charge_; ///< Per-instance repulsion scale.
    std::vector<double> freqs_;  ///< Per-instance frequency (Hz).
    std::vector<int> groups_;    ///< Resonator id (-1 for qubits).
    std::vector<std::int32_t> byFreq_; ///< Instances by (freq, index).
    std::vector<Band> bands_;          ///< Partition of byFreq_.
    std::vector<std::int32_t> bandOf_; ///< Per-instance band.
    double thresholdHz_;
    double cutoffFactor_;
    ThreadPool *pool_;
    /** Grid storage, rebuilt by every evaluate(). */
    mutable std::vector<Grid> grids_; ///< Per band.
    mutable std::vector<std::int32_t> cellOf_;
    mutable std::vector<std::int32_t> cellStart_;
    mutable std::vector<Slot> slots_;
    /** Pair storage, rebuilt by every evaluate(). */
    mutable std::vector<PairLane> lanes_; ///< Per chunk.
};

} // namespace qplacer

#endif // QPLACER_CORE_FREQ_FORCE_HPP
