/**
 * @file
 * Fig. 14: the Falcon layout prototype. Prints the input spectra and
 * layout statistics and writes SVG renderings of the optimized layout
 * (standing in for the paper's GDS export).
 */

#include <algorithm>
#include <set>

#include "bench_common.hpp"

using namespace qplacer;

int
main()
{
    bench::banner("Fig. 14: Falcon layout prototype");

    bench::FlowCache cache;
    const FlowResult &flow = cache.get("Falcon", PlacerMode::Qplacer);

    // (a) input spectra.
    std::set<double> qubit_freqs(flow.freqs.qubitFreqHz.begin(),
                                 flow.freqs.qubitFreqHz.end());
    std::set<double> res_freqs(flow.freqs.resonatorFreqHz.begin(),
                               flow.freqs.resonatorFreqHz.end());
    std::printf("qubit spectrum (%zu slots): ", qubit_freqs.size());
    for (double f : qubit_freqs)
        std::printf("%.2f ", f / 1e9);
    std::printf("GHz\nresonator spectrum (%zu slots): ",
                res_freqs.size());
    for (double f : res_freqs)
        std::printf("%.2f ", f / 1e9);
    std::printf("GHz\n\n");

    // (b) layout statistics.
    std::printf("layout: %.1f x %.1f mm, utilization %.1f%%, "
                "Ph %.2f%%, %zu hotspot pairs\n",
                flow.area.enclosingRect.width() / 1e3,
                flow.area.enclosingRect.height() / 1e3,
                100.0 * flow.area.utilization, flow.hotspots.phPercent,
                flow.hotspots.pairs.size());
    std::printf("global placement: %d iterations, final overflow %.3f\n",
                flow.place.iterations, flow.place.finalOverflow);

    // (c) physical meander routing (Fig. 8-e): verify every resonator
    // wire fits its reserved blocks.
    int routed = 0;
    double worst_slack = 1e18;
    for (const Resonator &res : flow.netlist.resonators()) {
        const MeanderPath path = routeMeander(flow.netlist, res.id);
        routed += path.fits();
        worst_slack =
            std::min(worst_slack, path.lengthUm - path.targetUm);
    }
    std::printf("meander routing: %d/%zu resonators fit their reserved "
                "blocks (worst slack %+.0f um)\n",
                routed, flow.netlist.resonators().size(), worst_slack);

    // (d) renderings.
    writeLayoutSvg(flow.netlist, "fig14_falcon_layout.svg");
    SvgOptions chip;
    chip.drawPadding = false;
    chip.drawLabels = false;
    writeLayoutSvg(flow.netlist, "fig14_falcon_chip.svg", chip);
    saveLayout(flow.netlist, "fig14_falcon_layout.txt");
    std::printf("wrote fig14_falcon_layout.svg (annotated), "
                "fig14_falcon_chip.svg (chip view),\n"
                "      fig14_falcon_layout.txt (positions)\n");
    return 0;
}
