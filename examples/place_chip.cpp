/**
 * @file
 * Command-line front end for the flow: place any of the paper's devices
 * with any scheme and export the layout.
 *
 *   place_chip [topology] [mode] [lb_um] [seed] [out.svg]
 *   place_chip Eagle Qplacer 300 1 eagle.svg
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "physics/boxmode.hpp"
#include "qplacer.hpp"

using namespace qplacer;

int
main(int argc, char **argv)
{
    const std::string topo_name = argc > 1 ? argv[1] : "Falcon";
    const std::string mode_name = argc > 2 ? argv[2] : "Qplacer";
    const double lb = argc > 3 ? std::atof(argv[3]) : 300.0;
    const std::uint64_t seed =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
    const std::string out = argc > 5 ? argv[5] : topo_name + ".svg";

    PlacerMode mode;
    if (mode_name == "Qplacer")
        mode = PlacerMode::Qplacer;
    else if (mode_name == "Classic")
        mode = PlacerMode::Classic;
    else if (mode_name == "Human")
        mode = PlacerMode::Human;
    else {
        std::fprintf(stderr,
                     "unknown mode '%s' (Qplacer|Classic|Human)\n",
                     mode_name.c_str());
        return 1;
    }

    try {
        const Topology topo = makeTopology(topo_name);
        FlowParams params;
        params.mode = mode;
        params.partition.segmentUm = lb;
        params.placer.seed = seed;
        const FlowResult r = PlacementSession().run(topo, params);
        if (!r.status.ok()) {
            std::fprintf(stderr, "error: %s in %s: %s\n",
                         flowCodeName(r.status.code),
                         r.status.stage.c_str(), r.status.message.c_str());
            return 1;
        }

        std::printf("%s / %s / lb=%.0f um / seed %llu\n",
                    topo_name.c_str(), mode_name.c_str(), lb,
                    static_cast<unsigned long long>(seed));
        std::printf("  cells       %d\n", r.netlist.numInstances());
        std::printf("  substrate   %.1f x %.1f mm (util %.1f%%)\n",
                    r.area.enclosingRect.width() / 1e3,
                    r.area.enclosingRect.height() / 1e3,
                    100.0 * r.area.utilization);
        std::printf("  hotspots    Ph %.2f%%, %zu pairs, %zu impacted "
                    "qubits\n",
                    r.hotspots.phPercent, r.hotspots.pairs.size(),
                    r.hotspots.impactedQubits.size());
        std::printf("  TM110       %.2f GHz (margin %+.2f GHz over the "
                    "7 GHz band)\n",
                    tm110FrequencyHz(r.area.enclosingRect.width(),
                                     r.area.enclosingRect.height()) /
                        1e9,
                    substrateModeMarginHz(r.area.enclosingRect) / 1e9);
        writeLayoutSvg(r.netlist, out);
        std::printf("  wrote       %s\n", out.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
