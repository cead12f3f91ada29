/**
 * @file
 * Reproduces the Fig. 14 scenario: run the full flow on the IBM Falcon
 * 27-qubit heavy-hex device, compare against the Classic and Human
 * layouts, and export SVG prototypes of all three.
 */

#include <cstdio>

#include "qplacer.hpp"

int
main()
{
    using namespace qplacer;

    const Topology topo = makeFalcon();
    std::printf("== %s: %d qubits, %d bus resonators ==\n",
                topo.name.c_str(), topo.numQubits(), topo.numCouplers());

    PlacementSession session;
    for (const PlacerMode mode :
         {PlacerMode::Qplacer, PlacerMode::Classic, PlacerMode::Human}) {
        FlowParams params;
        params.mode = mode;
        const FlowResult r = session.run(topo, params);
        if (!r.status.ok()) {
            std::fprintf(stderr, "%s: %s\n", placerModeName(mode),
                         r.status.message.c_str());
            return 1;
        }
        std::printf("%-8s A_mer %6.1f mm^2  util %5.1f%%  Ph %5.2f%%  "
                    "impacted qubits %zu\n",
                    placerModeName(mode), r.area.amerUm2 / 1e6,
                    100.0 * r.area.utilization, r.hotspots.phPercent,
                    r.hotspots.impactedQubits.size());

        const std::string file =
            std::string("falcon_") + placerModeName(mode) + ".svg";
        writeLayoutSvg(r.netlist, file);
        std::printf("         wrote %s\n", file.c_str());
    }
    return 0;
}
