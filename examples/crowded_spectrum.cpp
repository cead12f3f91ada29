/**
 * @file
 * Frequency-crowding study (the Section III-B motivation): shrink the
 * available qubit band and watch frequency reuse -- and therefore the
 * spatial-isolation workload and hotspot risk -- grow. Shows how to
 * drive the flow with custom spectra.
 */

#include <cstdio>

#include "qplacer.hpp"

int
main()
{
    using namespace qplacer;

    const Topology topo = makeAspen11();
    std::printf("device: %s (%d qubits)\n\n", topo.name.c_str(),
                topo.numQubits());
    std::printf("%-14s %-6s %-10s %-8s %-10s\n", "qubit band", "slots",
                "resonant", "Ph(%)", "impacted");

    PlacementSession session;
    for (const double span_ghz : {0.1, 0.2, 0.4, 0.8}) {
        FlowParams params;
        params.assigner.qubitBand =
            FrequencyBand(5.0e9 - span_ghz * 0.5e9,
                          5.0e9 + span_ghz * 0.5e9);
        params.placer.seed = 3;

        const FlowResult r = session.run(topo, params);
        if (!r.status.ok()) {
            std::fprintf(stderr, "%.2f GHz band: %s\n", span_ghz,
                         r.status.message.c_str());
            return 1;
        }

        // Count the resonant qubit-qubit pairs the placement engine
        // had to separate spatially.
        std::size_t qubit_pairs = 0;
        for (int a = 0; a < r.netlist.numQubits(); ++a) {
            for (int b = a + 1; b < r.netlist.numQubits(); ++b) {
                if (isResonant(r.netlist.instance(a).freqHz,
                               r.netlist.instance(b).freqHz))
                    ++qubit_pairs;
            }
        }
        std::printf("%5.2f GHz      %-6d %-10zu %-8.2f %zu\n", span_ghz,
                    r.freqs.numQubitSlots, qubit_pairs,
                    r.hotspots.phPercent,
                    r.hotspots.impactedQubits.size());
    }
    std::printf("\nNarrower spectrum -> more frequency reuse -> more "
                "pairs to isolate spatially.\n");
    return 0;
}
