/**
 * @file
 * Netlist construction: topology + frequency assignment + preprocessing
 * parameters -> placement netlist (Fig. 7 a-b).
 *
 * Scaling: the builder precomputes per-coupler segment counts,
 * prefix-sums the instance and net offsets, and fills instances, nets,
 * resonator records, and warm-start positions in parallel on the
 * flow's worker pool with deterministic chunking -- the netlist is
 * bitwise-identical to a sequential append at any thread count (gated
 * against the oracle in tests/oracles by ctest -L assign).
 */

#ifndef QPLACER_NETLIST_BUILDER_HPP
#define QPLACER_NETLIST_BUILDER_HPP

#include "freq/assigner.hpp"
#include "netlist/netlist.hpp"
#include "netlist/partition.hpp"
#include "topology/topology.hpp"

namespace qplacer {

class ThreadPool;
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
     * @p pool (optional, borrowed) parallelizes the fill loops (chunked
     * at ThreadPool::kGrainMedium); null or 1 thread runs serially with
     * identical output.
     * @p trace (optional) gets the sub-stage spans "segments",
     * "instances", "warm_start" and "finalize".
     */
    Netlist build(const Topology &topo,
                  const FrequencyAssignment &freqs,
                  double target_util = 0.72, ThreadPool *pool = nullptr,
                  Trace *trace = nullptr) const;

    const PartitionParams &params() const { return params_; }

  private:
    PartitionParams params_;
};

} // namespace qplacer

#endif // QPLACER_NETLIST_BUILDER_HPP
