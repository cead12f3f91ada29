/**
 * @file
 * Frequency hotspot analysis (Eq. 18): finds spatial-violation pairs
 * (near-resonant instances whose padded footprints are adjacent) and
 * aggregates them into the hotspot proportion P_h and the impacted
 * qubit count of Fig. 12.
 */

#ifndef QPLACER_EVAL_HOTSPOT_HPP
#define QPLACER_EVAL_HOTSPOT_HPP

#include <vector>

#include "netlist/netlist.hpp"

namespace qplacer {

/** One spatial violation: a near-resonant adjacent pair. */
struct HotspotPair
{
    int a = -1;          ///< Instance id.
    int b = -1;          ///< Instance id.
    double gapUm = 0.0;  ///< Gap between padded footprints.
    double distUm = 0.0; ///< Centroid distance.
    double overlapLenUm = 0.0; ///< Shared-boundary length term of Eq. 18.
};

/** Aggregated hotspot report for one layout. */
struct HotspotReport
{
    std::vector<HotspotPair> pairs;

    /** Frequency hotspot proportion P_h (as a percentage). */
    double phPercent = 0.0;

    /** Device qubits impacted directly or through a violating coupler. */
    std::vector<int> impactedQubits;
};

/**
 * Scan a placed netlist for hotspots: the pairs @p rule flags as
 * resonant and adjacent (CrosstalkRule::hotspotPair).
 */
HotspotReport analyzeHotspots(const Netlist &netlist,
                              const CrosstalkRule &rule = {});

} // namespace qplacer

#endif // QPLACER_EVAL_HOTSPOT_HPP
