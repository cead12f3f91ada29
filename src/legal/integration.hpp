/**
 * @file
 * Integration-aware legalization (Algorithm 1, Section IV-C2).
 *
 * After Tetris legalization the segments of a resonator may be
 * scattered. For each resonator, `rilc` checks that its segments form a
 * single adjacency-connected cluster; failing resonators grow their
 * largest cluster by relocating scattered segments into free slots on
 * the cluster frontier or by swapping them with frontier segments of
 * other resonators, each candidate validated by the resonance checker
 * tau (skipped in the frequency-blind Classic mode).
 */

#ifndef QPLACER_LEGAL_INTEGRATION_HPP
#define QPLACER_LEGAL_INTEGRATION_HPP

#include <vector>

#include "legal/occupancy.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

/**
 * The resonance checker tau, shared by the Tetris scan and Algorithm 1:
 * true if instance @p inst, hypothetically centered at @p pos, has no
 * grid owner within rule.adjacencyTolUm of its padded footprint that
 * @p rule calls a resonant pair with it. The owner @p ignore (a swap
 * partner) is skipped. @p scratch is the ownersIn buffer, reused so
 * the probe -- run once per candidate slot -- never allocates.
 */
bool resonanceOk(const Netlist &netlist, const OccupancyGrid &grid,
                 const CrosstalkRule &rule, const Instance &inst, Vec2 pos,
                 std::vector<std::int32_t> &scratch, int ignore = -1);

/** Runs Algorithm 1 on a legalized netlist. */
class IntegrationLegalizer
{
  public:
    /**
     * @p resonance_check validates moves/swaps against the resonance
     * checker tau under @p rule.
     */
    explicit IntegrationLegalizer(bool resonance_check = true,
                                  CrosstalkRule rule = {});

    /** Outcome summary. */
    struct Result
    {
        int initiallyBroken = 0;  ///< Resonators failing rilc on entry.
        int repaired = 0;         ///< Fixed by moves/swaps.
        int unintegrated = 0;     ///< Still failing at exit.
        int moves = 0;
        int swaps = 0;
    };

    /**
     * Repair the segment clustering of every resonator in place.
     * @p grid must reflect the current positions (qubits + segments
     * occupied).
     */
    Result run(Netlist &netlist, OccupancyGrid &grid) const;

    /**
     * rilc (Section IV-C2): every segment of the resonator must be in
     * close proximity to at least one other segment of the same
     * resonator -- i.e. no singleton clusters. Split blocks are fine;
     * the meander is re-routed through them (Fig. 8-e).
     */
    bool integrationLegal(const Netlist &netlist, int resonator_id) const;

    /** Segment clusters of a resonator (lists of instance ids). */
    std::vector<std::vector<int>>
    clusters(const Netlist &netlist, int resonator_id) const;

  private:
    /** True if two instances' padded rects are within the tolerance. */
    bool adjacent(const Instance &a, const Instance &b) const;

    /** resonanceOk under rule_; true when resonanceCheck is off. */
    bool tauOk(const Netlist &netlist, const OccupancyGrid &grid,
               const Instance &inst, Vec2 pos, int ignore = -1) const;

    /**
     * Rip up and contiguously re-place the full segment chain of
     * resonator @p r (the final repair of Algorithm 1 failures).
     * @return true if the resonator is integration-legal afterwards.
     */
    bool replaceChain(Netlist &netlist, OccupancyGrid &grid, int r) const;

    bool resonanceCheck_;
    CrosstalkRule rule_;

    /**
     * ownersIn scratch for resonanceOk: the tau probe runs once per
     * candidate slot of every repair move, so it must not allocate.
     * The legalizer is single-threaded; mutable is safe here.
     */
    mutable std::vector<std::int32_t> ownerScratch_;
};

} // namespace qplacer

#endif // QPLACER_LEGAL_INTEGRATION_HPP
