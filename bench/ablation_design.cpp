/**
 * @file
 * Ablation study of QPlacer's design choices: the frequency force, the
 * tau-checked legalization and distance-2 colouring. Each variant
 * disables one frequency-aware ingredient on Aspen-M and reports hotspot
 * proportion, impacted qubits, substrate box-mode margin, and bv-4
 * fidelity.
 *
 * Finding: in this implementation the
 * tau-checked legalization is the decisive ingredient -- the global
 * frequency force pre-separates resonant groups, but without the tau
 * checks the packing legalizer erases that separation (and the force's
 * boundary equilibria then sit exactly at the violation threshold,
 * scoring *worse* than Classic). Distance-2 colouring reduces the
 * number of resonant pairs the spatial machinery must handle.
 */

#include "bench_common.hpp"
#include "physics/boxmode.hpp"

using namespace qplacer;

namespace {

struct Variant
{
    const char *name;
    bool freqForce;
    bool tauLegal;
    bool distance2;
};

} // namespace

int
main()
{
    bench::banner("Ablation: QPlacer design choices (Aspen-M)");

    const Variant variants[] = {
        {"full Qplacer", true, true, true},
        {"- tau legalization", true, false, true},
        {"- frequency force", false, true, true},
        {"- distance-2 colours", true, true, false},
        {"Classic (no freq awareness)", false, false, true},
    };

    const Topology topo = makeTopology("Aspen-M");
    const Evaluator evaluator = bench::makeEvaluator();
    const Circuit bv = makeBenchmark("bv-4");

    TextTable table;
    table.header({"variant", "Ph (%)", "pairs", "impacted",
                  "bv-4 fidelity", "TM110 margin (GHz)"});
    CsvWriter csv("ablation_design.csv");
    csv.header({"variant", "ph_percent", "pairs", "impacted_qubits",
                "bv4_fidelity", "tm110_margin_ghz"});

    for (const Variant &v : variants) {
        FlowParams params;
        params.placer.seed = bench::placementSeed();
        params.placer.freqForce = v.freqForce;
        params.legalizer.resonanceCheck = v.tauLegal;
        params.assigner.distance2 = v.distance2;

        const FlowResult r = bench::placeOrDie(topo, params);
        const double fidelity =
            evaluator.evaluate(topo, r.netlist, r.hotspots, bv).meanFidelity;
        const double margin =
            substrateModeMarginHz(r.area.enclosingRect) / 1e9;

        table.row({v.name, TextTable::num(r.hotspots.phPercent, 2),
                   std::to_string(r.hotspots.pairs.size()),
                   std::to_string(r.hotspots.impactedQubits.size()),
                   TextTable::fidelity(fidelity),
                   TextTable::num(margin, 2)});
        csv.row({v.name, CsvWriter::cell(r.hotspots.phPercent),
                 CsvWriter::cell(
                     static_cast<long long>(r.hotspots.pairs.size())),
                 CsvWriter::cell(static_cast<long long>(
                     r.hotspots.impactedQubits.size())),
                 CsvWriter::cell(fidelity), CsvWriter::cell(margin)});
    }
    std::printf("%s\nwrote ablation_design.csv\n",
                table.render().c_str());
    return 0;
}
