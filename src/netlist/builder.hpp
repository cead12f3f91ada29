/**
 * @file
 * Netlist construction: topology + frequency assignment + preprocessing
 * parameters -> placement netlist (Fig. 7 a-b).
 *
 * The builder precomputes per-coupler segment counts, prefix-sums the
 * instance and net offsets, and fills instances, nets and resonator
 * records in place at those offsets before handing them to the netlist
 * in one Netlist::adopt -- bitwise-identical to a sequential append
 * (gated against the oracle in tests/oracles by ctest -L assign), and
 * without the append path's per-item checks and reallocation.
 */

#ifndef QPLACER_NETLIST_BUILDER_HPP
#define QPLACER_NETLIST_BUILDER_HPP

#include "freq/assigner.hpp"
#include "netlist/netlist.hpp"
#include "netlist/partition.hpp"
#include "topology/topology.hpp"

namespace qplacer {

class Trace;

/** Builds the placement netlist for a device. */
class NetlistBuilder
{
  public:
    explicit NetlistBuilder(PartitionParams params = {});

    /**
     * Build the netlist: one padded 400 um qubit instance per topology
     * qubit, one padded segment chain per coupler (resonator length from
     * its assigned frequency), 2-pin nets qubit--first-segment,
     * consecutive-segment, last-segment--qubit.
     *
     * The region is sized to @p target_util and instances are initialized
     * on the (scaled) topology embedding: qubits at their embedded spots,
     * segments spread along the straight line between their endpoints.
     *
     * @p trace (optional) gets the sub-stage spans "segments",
     * "instances", "warm_start" and "finalize".
     */
    Netlist build(const Topology &topo,
                  const FrequencyAssignment &freqs,
                  double target_util = 0.72,
                  Trace *trace = nullptr) const;

    const PartitionParams &params() const { return params_; }

  private:
    PartitionParams params_;
};

} // namespace qplacer

#endif // QPLACER_NETLIST_BUILDER_HPP
