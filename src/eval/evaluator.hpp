/**
 * @file
 * Benchmark evaluator (Section VI-A): maps a benchmark onto many
 * connected device subsets (same subsets for every placer, as in the
 * paper) and averages the Eq. 15 fidelity over them.
 */

#ifndef QPLACER_EVAL_EVALUATOR_HPP
#define QPLACER_EVAL_EVALUATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/circuit.hpp"
#include "eval/fidelity.hpp"
#include "eval/hotspot.hpp"
#include "netlist/netlist.hpp"
#include "topology/topology.hpp"

namespace qplacer {

/** Evaluator configuration. */
struct EvaluatorParams
{
    int numSubsets = 50;        ///< Mappings per benchmark (paper: 50).
    std::uint64_t subsetSeed = 7; ///< Shared across placers.
    FidelityParams fidelity;
};

/** Result of evaluating one benchmark on one layout. */
struct BenchmarkResult
{
    std::string benchmark;
    double meanFidelity = 0.0;
    double minFidelity = 0.0;
    double maxFidelity = 0.0;
    std::vector<double> perSubset;
    int meanSwaps = 0;
};

/** Maps + scores benchmarks against a placed layout. */
class Evaluator
{
  public:
    explicit Evaluator(EvaluatorParams params = {});

    /**
     * Evaluate @p circuit on @p netlist (a placed layout of @p topo)
     * whose hotspot pairs are @p hotspots (FlowResult::hotspots, or
     * analyzeHotspots of the layout under the run's rule).
     * Subset sampling depends only on (topology, circuit size, seed), so
     * different placers are scored on identical mappings.
     */
    BenchmarkResult evaluate(const Topology &topo, const Netlist &netlist,
                             const HotspotReport &hotspots,
                             const Circuit &circuit) const;

    const EvaluatorParams &params() const { return params_; }

  private:
    EvaluatorParams params_;
};

} // namespace qplacer

#endif // QPLACER_EVAL_EVALUATOR_HPP
