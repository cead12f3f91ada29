/**
 * @file
 * Resonator partitioning (Section IV-B2, Fig. 8).
 *
 * Each resonator's reserved area (wire length x effective wire width) is
 * reshaped into a compact rectangle and divided into square segments of
 * side l_b. Segments are placement placeholders only -- the physical
 * meander is re-routed through them after legalization.
 */

#ifndef QPLACER_NETLIST_PARTITION_HPP
#define QPLACER_NETLIST_PARTITION_HPP

#include "physics/constants.hpp"

namespace qplacer {

/** Parameters of the preprocessing step (padding + partitioning). */
struct PartitionParams
{
    double segmentUm = 300.0;            ///< Basic wire block size l_b.
    double wireWidthUm = kResonatorWireWidthUm;
    double qubitPadUm = kQubitPadUm;     ///< d_q.
    double resonatorPadUm = kResonatorPadUm; ///< d_r.
};

/**
 * Number of l_b x l_b segments needed to reserve area for a resonator
 * of length @p length_um: ceil(length * wire_width / l_b^2), at least 1.
 */
int segmentCount(double length_um, const PartitionParams &params);

} // namespace qplacer

#endif // QPLACER_NETLIST_PARTITION_HPP
