/**
 * @file
 * Segment-size trade-off (the Section VI-D study as an API example):
 * sweep the resonator block size l_b on one device and report cell
 * count, runtime, utilization, and hotspot proportion.
 */

#include <cstdio>

#include "qplacer.hpp"

int
main()
{
    using namespace qplacer;

    const Topology topo = makeXtree();
    std::printf("device: %s (%d qubits, %d couplers)\n\n",
                topo.name.c_str(), topo.numQubits(), topo.numCouplers());
    std::printf("%-8s %-8s %-10s %-8s %-8s\n", "lb(mm)", "#cells",
                "runtime(s)", "util(%)", "Ph(%)");

    PlacementSession session;
    for (const double lb_mm : {0.2, 0.3, 0.4}) {
        FlowParams params;
        params.partition.segmentUm = lb_mm * 1000.0;
        const FlowResult r = session.run(topo, params);
        if (!r.status.ok()) {
            std::fprintf(stderr, "lb=%.1f mm: %s\n", lb_mm,
                         r.status.message.c_str());
            return 1;
        }
        std::printf("%-8.1f %-8d %-10.2f %-8.1f %-8.2f\n", lb_mm,
                    r.netlist.numInstances(), r.seconds(),
                    100.0 * r.area.utilization, r.hotspots.phPercent);
    }
    std::printf("\nSmaller blocks pack better but multiply the cell "
                "count (Table II).\n");
    return 0;
}
