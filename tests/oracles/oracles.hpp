/**
 * @file
 * Test-only oracles: the straightforward pre-scaling implementations
 * the production engines replaced, kept so the equivalence suites can
 * prove the fast code paths bit for bit identical to them. Nothing in
 * src/ links this library.
 *
 *  - DSATUR by linear scan, the all-pairs resonator share graph and the
 *    all-pairs violation count (freq/test_assign_equivalence);
 *  - the sequential-append netlist builder (freq/test_assign_equivalence,
 *    netlist/test_builder_scale);
 *  - the plan-free DCT row/column passes (math/test_dct_plan);
 *  - the frequency force over an all-distance collision map
 *    (core/test_freq_force_equivalence).
 */

#ifndef QPLACER_TESTS_ORACLES_HPP
#define QPLACER_TESTS_ORACLES_HPP

#include <cstdint>
#include <vector>

#include "freq/assigner.hpp"
#include "geometry/vec2.hpp"
#include "math/dct.hpp"
#include "netlist/netlist.hpp"
#include "netlist/partition.hpp"
#include "topology/graph.hpp"
#include "topology/topology.hpp"

namespace qplacer {

class ThreadPool;

namespace oracle {

/**
 * DSATUR with an O(n) linear scan per selection over per-node std::set
 * colour sets: maximum saturation, ties by maximum degree, then by
 * smallest index.
 */
std::vector<int> dsaturReference(const Graph &graph);

/** Resonator share graph by an all-pairs scan over couplers. */
Graph resonatorShareGraphAllPairs(const Graph &coupling);

/**
 * FrequencyAssigner::countDomainViolations with the resonator pass as
 * an all-pairs scan over couplers.
 */
int countDomainViolationsAllPairs(const Topology &topo,
                                  const FrequencyAssignment &assignment,
                                  double detuning_threshold_hz);

/** NetlistBuilder::build as one sequential append in instance order. */
Netlist buildReference(const Topology &topo,
                       const FrequencyAssignment &freqs,
                       double target_util, const PartitionParams &params);

/** Plan-free row pass: per-row Dct::apply with per-call workspaces. */
void transformRowsUnplanned(std::vector<double> &map, int nx, int ny,
                            Dct::Kind kind, ThreadPool *pool);

/** Plan-free column pass (see transformRowsUnplanned). */
void transformColsUnplanned(std::vector<double> &map, int nx, int ny,
                            Dct::Kind kind, ThreadPool *pool);

/**
 * FreqForceModel over the all-distance collision map: a sorted-frequency
 * window sweep lists, per instance, every near-resonant partner at any
 * distance (same resonator excluded), and evaluate() scans each list,
 * skipping the pairs beyond their cutoff radius.
 */
class PairListFreqForce
{
  public:
    PairListFreqForce(const Netlist &netlist, double threshold_hz,
                      double cutoff_factor, ThreadPool *pool);

    /** FreqForceModel::evaluate over the pair lists. */
    double evaluate(const std::vector<Vec2> &positions,
                    std::vector<Vec2> &gradient) const;

  private:
    std::vector<std::vector<std::int32_t>> partners_;
    std::vector<double> charge_;
    double cutoffFactor_;
    ThreadPool *pool_;
};

} // namespace oracle
} // namespace qplacer

#endif // QPLACER_TESTS_ORACLES_HPP
