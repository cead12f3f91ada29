/**
 * @file
 * Table II: placement runtime, average per-iteration time, and cell
 * count per topology for each segment size l_b, measured with
 * google-benchmark (one measured iteration per configuration: the
 * placement itself already averages hundreds of solver iterations).
 */

#include <benchmark/benchmark.h>

#include "qplacer.hpp"

using namespace qplacer;

namespace {

struct RunStats
{
    int cells = 0;
    int iterations = 0;
};

RunStats
runPlacement(const std::string &topo_name, double lb_um)
{
    const Topology topo = makeTopology(topo_name);
    FlowParams params;
    params.partition.segmentUm = lb_um;
    const FrequencyAssigner assigner(params.assigner, params.crosstalk);
    const auto freqs = assigner.assign(topo);
    const NetlistBuilder builder(params.partition);
    Netlist netlist = builder.build(topo, freqs, params.targetUtil);

    const GlobalPlacer placer(params.placer, params.crosstalk);
    const PlaceResult r = placer.place(netlist);

    RunStats stats;
    stats.cells = netlist.numInstances();
    stats.iterations = std::max(1, r.iterations);
    return stats;
}

void
placementBenchmark(benchmark::State &state, const std::string &topo_name,
                   double lb_um)
{
    RunStats stats;
    for (auto _ : state)
        stats = runPlacement(topo_name, lb_um);
    state.counters["cells"] = stats.cells;
    state.counters["iters"] = stats.iterations;
    // Average runtime per solver iteration (the paper's "Avg" column).
    state.counters["s_per_iter"] = benchmark::Counter(
        static_cast<double>(stats.iterations),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

} // namespace

int
main(int argc, char **argv)
{
    for (const auto &topo_name :
         {"Grid", "Xtree", "Falcon", "Eagle", "Aspen-11", "Aspen-M"}) {
        for (const double lb : {200.0, 300.0, 400.0}) {
            const std::string name = std::string("TableII/") + topo_name +
                                     "/lb=" +
                                     std::to_string(static_cast<int>(lb));
            benchmark::RegisterBenchmark(
                name.c_str(),
                [topo_name, lb](benchmark::State &state) {
                    placementBenchmark(state, topo_name, lb);
                })
                ->Unit(benchmark::kMillisecond)
                ->Iterations(1);
        }
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
