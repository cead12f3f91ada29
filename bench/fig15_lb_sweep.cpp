/**
 * @file
 * Fig. 15: substrate area utilization and hotspot proportion P_h for
 * Qplacer with resonator segment sizes l_b in {0.2, 0.3, 0.4} mm.
 *
 * Prints one row per (paper topology, l_b) with the cell count,
 * utilization and P_h, then the mean utilization and P_h per l_b over
 * the topologies; writes the rows to fig15_lb_sweep.csv. QP_SEED sets
 * the placement seed.
 *
 * The paper picks l_b = 0.3 mm as the best trade-off. This driver does
 * not show that. Over seeds 1-5 (4-core host, default thread count) the
 * mean P_h at 0.2 mm is below the one at 0.3 mm in 4 of 5 seeds: 0.26/
 * 0.33, 0.07/0.22, 0.18/0.68, 0.27/0.57 and 0.43/0.21 %. The mean
 * utilization at 0.2 mm stays within 0.6 points of the one at 0.3 mm.
 */

#include "bench_common.hpp"
#include "math/stats.hpp"

using namespace qplacer;

int
main()
{
    bench::banner("Fig. 15: segment-size (l_b) sweep");

    bench::FlowCache cache;
    CsvWriter csv("fig15_lb_sweep.csv");
    csv.header({"topology", "lb_mm", "cells", "utilization_percent",
                "ph_percent"});

    TextTable table;
    table.header({"topology", "lb (mm)", "#cells", "util (%)", "Ph (%)"});
    std::map<double, std::vector<double>> util_by_lb;
    std::map<double, std::vector<double>> ph_by_lb;

    for (const auto &topo_name : paperTopologyNames()) {
        for (const double lb_mm : {0.2, 0.3, 0.4}) {
            const FlowResult &flow =
                cache.get(topo_name, PlacerMode::Qplacer, lb_mm * 1000.0);
            table.row({topo_name, TextTable::num(lb_mm, 1),
                       std::to_string(flow.netlist.numInstances()),
                       TextTable::num(100.0 * flow.area.utilization, 1),
                       TextTable::num(flow.hotspots.phPercent, 2)});
            csv.row({topo_name, CsvWriter::cell(lb_mm),
                     CsvWriter::cell(static_cast<long long>(
                         flow.netlist.numInstances())),
                     CsvWriter::cell(100.0 * flow.area.utilization),
                     CsvWriter::cell(flow.hotspots.phPercent)});
            util_by_lb[lb_mm].push_back(flow.area.utilization);
            ph_by_lb[lb_mm].push_back(flow.hotspots.phPercent);
        }
    }
    std::printf("%s\n", table.render().c_str());
    for (const double lb_mm : {0.2, 0.3, 0.4}) {
        std::printf("lb=%.1f mean: util %.1f%% Ph %.2f%%\n", lb_mm,
                    100.0 * mean(util_by_lb[lb_mm]),
                    mean(ph_by_lb[lb_mm]));
    }
    std::printf("wrote fig15_lb_sweep.csv\n");
    return 0;
}
