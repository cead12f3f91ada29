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

/**
 * Sub-stage wall clocks of one build() call, surfaced through
 * FlowResult as "build.stages" in qplacer_cli --report json.
 */
struct BuildStats
{
    double segmentsSeconds = 0.0;  ///< Lengths, counts, prefix sums.
    double instancesSeconds = 0.0; ///< Instance / net / resonator fill.
    double warmStartSeconds = 0.0; ///< Embedding scale + positions.
    double finalizeSeconds = 0.0;  ///< Region sizing, clamp, validate.
    int threads = 1;               ///< Worker threads the fill could use.
};

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
     * @p stats (optional) receives the sub-stage wall clocks.
     */
    Netlist build(const Topology &topo,
                  const FrequencyAssignment &freqs,
                  double target_util = 0.72, ThreadPool *pool = nullptr,
                  BuildStats *stats = nullptr) const;

    const PartitionParams &params() const { return params_; }

  private:
    PartitionParams params_;
};

} // namespace qplacer

#endif // QPLACER_NETLIST_BUILDER_HPP
