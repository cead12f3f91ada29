/**
 * @file
 * Quickstart: place a 5x5 grid device with QPlacer, report the layout
 * metrics, and export an SVG.
 *
 * Build & run:
 *   cmake -B build -G Ninja -DQPLACER_BUILD_EXAMPLES=ON
 *   cmake --build build && ./build/examples/example_quickstart
 */

#include <cstdio>

#include "qplacer.hpp"

int
main()
{
    using namespace qplacer;

    // 1. Pick a device topology (Table I of the paper).
    const Topology topo = makeGrid(5, 5);
    std::printf("device: %s (%d qubits, %d couplers)\n",
                topo.name.c_str(), topo.numQubits(), topo.numCouplers());

    // 2. Run the full frequency-aware flow: frequency assignment,
    //    padding + resonator partitioning, electrostatic placement,
    //    integration-aware legalization. Errors come back in the
    //    result's status; nothing throws.
    PlacementSession session;
    const FlowResult result = session.run(topo, FlowParams{});
    if (!result.status.ok()) {
        std::fprintf(stderr, "%s in %s: %s\n",
                     flowCodeName(result.status.code),
                     result.status.stage.c_str(),
                     result.status.message.c_str());
        return 1;
    }

    std::printf("placed %d instances in %.2fs (%d iterations)\n",
                result.netlist.numInstances(), result.seconds(),
                result.place.iterations);
    std::printf("substrate: %.1f x %.1f mm, utilization %.1f%%\n",
                result.area.enclosingRect.width() / 1000.0,
                result.area.enclosingRect.height() / 1000.0,
                100.0 * result.area.utilization);
    std::printf("frequency hotspots: Ph = %.2f%% (%zu violating pairs, "
                "%zu impacted qubits)\n",
                result.hotspots.phPercent, result.hotspots.pairs.size(),
                result.hotspots.impactedQubits.size());

    // 3. Score a benchmark circuit on the layout.
    const Circuit bv = makeBenchmark("bv-4");
    Evaluator evaluator;
    const BenchmarkResult score =
        evaluator.evaluate(topo, result.netlist, result.hotspots, bv);
    std::printf("bv-4 mean fidelity over %zu mappings: %.4f\n",
                score.perSubset.size(), score.meanFidelity);

    // 4. Export the layout.
    writeLayoutSvg(result.netlist, "quickstart_grid.svg");
    std::printf("wrote quickstart_grid.svg\n");
    return 0;
}
