#include "eval/evaluator.hpp"

#include <algorithm>

#include "circuits/mapper.hpp"
#include "circuits/subsets.hpp"
#include "math/stats.hpp"
#include "util/logging.hpp"

namespace qplacer {

Evaluator::Evaluator(EvaluatorParams params)
    : params_(params)
{
}

BenchmarkResult
Evaluator::evaluate(const Topology &topo, const Netlist &netlist,
                    const HotspotReport &hotspots,
                    const Circuit &circuit) const
{
    if (circuit.numQubits() > topo.numQubits()) {
        fatal(str("Evaluator: benchmark ", circuit.name(), " needs ",
                  circuit.numQubits(), " qubits but device has ",
                  topo.numQubits()));
    }

    BenchmarkResult result;
    result.benchmark = circuit.name();

    const FidelityModel model(params_.fidelity);
    const Mapper mapper(topo.coupling);

    // Subset seed depends only on device + circuit width: all placers
    // see the same mappings.
    const std::uint64_t seed =
        params_.subsetSeed * 2654435761ULL +
        static_cast<std::uint64_t>(circuit.numQubits()) * 97 +
        static_cast<std::uint64_t>(topo.numQubits());
    const auto subsets = sampleSubsets(
        topo.coupling, circuit.numQubits(), params_.numSubsets, seed);

    long long swap_total = 0;
    for (const auto &subset : subsets) {
        const MappedCircuit mapped = mapper.map(circuit, subset);
        const Schedule schedule = scheduleAsap(mapped, topo.coupling);
        const FidelityBreakdown fb =
            model.evaluate(netlist, hotspots, mapped, schedule);
        result.perSubset.push_back(fb.total);
        swap_total += mapped.numSwaps;
    }

    result.meanFidelity = mean(result.perSubset);
    result.minFidelity = minOf(result.perSubset);
    result.maxFidelity = maxOf(result.perSubset);
    result.meanSwaps = static_cast<int>(
        swap_total / std::max<std::size_t>(1, subsets.size()));
    return result;
}

} // namespace qplacer
