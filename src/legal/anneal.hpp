/**
 * @file
 * Annealing-based detailed placement: a post-legalization refinement
 * stage that proposes swap / relocate moves on the legalized layout and
 * accepts them under a geometric temperature schedule.
 *
 * Moves are scored with incremental deltas of three terms:
 *
 *  - HPWL: weighted Manhattan half-perimeter over the nets incident to
 *    the moved instances (O(degree) per proposal);
 *  - collisions: the count of hotspot pairs (CrosstalkRule::hotspotPair,
 *    the hotspot metric's predicate) touching the moved instances.
 *    Any move that increases this count is rejected outright, so the
 *    refined layout never has more hotspot pairs than the input;
 *  - fidelity: a hinge sum of (adjacencyTol - gap) over the surviving
 *    near-resonant pairs, so the annealer also widens gaps it cannot
 *    eliminate.
 *
 * Legality is structural, not checked after the fact: moves are probed
 * against the same word-packed OccupancyGrid the legalizers use
 * (canPlaceIgnoring for relocations; swaps exchange identical padded
 * footprints), so every accepted move preserves a pairwise-disjoint,
 * in-region layout by construction. The walk is serial and driven by
 * one Rng stream, so a refinement is deterministic per seed. At the end
 * the best visited state -- ranked by (HPWL, collision count), with the
 * input layout as the initial best -- is restored. Together with the
 * hard rejection of collision increases this guarantees both
 * hpwlAfter <= hpwlBefore and collisionsAfter <= collisionsBefore.
 */

#ifndef QPLACER_LEGAL_ANNEAL_HPP
#define QPLACER_LEGAL_ANNEAL_HPP

#include <cstdint>
#include <functional>

#include "legal/legalizer.hpp"
#include "netlist/netlist.hpp"
#include "util/cancel.hpp"

namespace qplacer {

/** Knobs of the detailed-placement stage (off by default). */
struct DetailedPlaceParams
{
    /**
     * Sweeps of the annealing walk (one sweep = numInstances move
     * proposals). 0, the default, is an exact no-op: the stage is not
     * inserted and the legalized layout is returned untouched, because
     * the analytic flow's golden layouts are the baseline contract and
     * refinement is opt-in on top of them.
     */
    int iters = 0;

    /**
     * Initial temperature in cost units (um of HPWL). Uphill moves of
     * about this size are accepted with probability 1/e at the start.
     * 0 = pure descent (only non-worsening moves accepted).
     */
    double tempStart = 75.0;
};

/** Diagnostics of one detailed-placement run (FlowResult::detailed). */
struct DetailedStats
{
    bool ran = false;       ///< The stage executed (iters > 0, valid input).
    bool cancelled = false; ///< Stopped early by a CancelToken.
    int sweeps = 0;         ///< Sweeps completed.
    long long proposed = 0; ///< Moves proposed.
    long long accepted = 0; ///< Moves accepted.
    long long swaps = 0;    ///< Accepted swaps.
    long long relocates = 0;    ///< Accepted relocations.
    double hpwlBefore = 0.0;    ///< Exact layout HPWL at entry.
    double hpwlAfter = 0.0;     ///< Exact layout HPWL of the result.
    int collisionsBefore = 0;   ///< Near-resonant adjacent pairs at entry.
    int collisionsAfter = 0;    ///< ... of the result (never larger).
};

/** The annealing detailed placer; see the file header for the contract. */
class DetailedPlacer
{
  public:
    DetailedPlacer(DetailedPlaceParams params, CrosstalkRule rule);

    /**
     * Weight of the fidelity hinge (um of violation depth) against um
     * of HPWL in the move cost. Small on purpose: wirelength stays the
     * primary objective; the hinge only breaks ties toward wider
     * detuning gaps.
     */
    static constexpr double kFidelityWeight = 4.0;

    /**
     * Test/diagnostic hook: invoked after every accepted move with the
     * netlist in its post-move state (the property suites assert
     * legality and objective monotonicity per move through this).
     */
    using AcceptHook = std::function<void(const Netlist &)>;

    /**
     * Refine @p netlist in place. The input must be a legalized layout
     * (pairwise-disjoint padded footprints on the legalizer's cell
     * grid); anything else is detected while building the occupancy
     * grid and returned untouched with ran = false. Deterministic per
     * @p seed.
     */
    DetailedStats refine(Netlist &netlist, std::uint64_t seed,
                         const CancelToken *cancel = nullptr,
                         const AcceptHook &on_accept = {}) const;

    const DetailedPlaceParams &params() const { return params_; }

  private:
    DetailedPlaceParams params_;
    CrosstalkRule rule_;
};

} // namespace qplacer

#endif // QPLACER_LEGAL_ANNEAL_HPP
