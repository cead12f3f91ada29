/**
 * @file
 * Legalizer scaling: wall-time and displacement of the full
 * legalization stack on octagon and grid devices up to 1000+ qubits,
 * comparing the reference occupancy probes (pre-bitset per-cell scans)
 * against the fast path (word-packed bitset + summary blocks +
 * skip-cursor spiral).
 *
 * The probe comparison *gates* the determinism contract: both engines
 * must produce bitwise-identical layouts (exit 1 otherwise) -- the
 * speedup itself is gated in nightly CI from the CSV on the 1000+
 * qubit instances.
 *
 * Environment overrides:
 *   QP_SEED  jitter seed for the synthetic global-placement input
 *            (default 1)
 *
 * Usage: bench_legalize_scale [out.csv]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace qplacer::bench {
namespace {

struct Workload
{
    std::string name;
    Topology topo;
};

/**
 * Synthetic legalization input: the built netlist's warm start with a
 * deterministic gaussian jitter, reproducing the local overlaps a
 * converged global placement hands the legalizer.
 */
Netlist
jitteredInstance(const Topology &topo, std::uint64_t seed)
{
    FlowParams params;
    const FrequencyAssigner assigner(params.assigner);
    const auto freqs = assigner.assign(topo);
    const NetlistBuilder builder(params.partition);
    Netlist nl = builder.build(topo, freqs, params.targetUtil);

    Rng rng(seed);
    const double spread = 0.02 * nl.region().width();
    for (Instance &inst : nl.instances()) {
        inst.pos.x = rng.gaussian(inst.pos.x, spread);
        inst.pos.y = rng.gaussian(inst.pos.y, spread);
    }
    nl.clampIntoRegion();
    return nl;
}

struct TimedRun
{
    Netlist netlist;
    LegalizeResult result;
    double seconds = 0.0;
};

TimedRun
runLegalizer(const Netlist &input, const LegalizerParams &params)
{
    TimedRun run;
    run.netlist = input;
    Timer timer;
    run.result = Legalizer(params).legalize(run.netlist);
    run.seconds = timer.seconds();
    return run;
}

int
run(int argc, char **argv)
{
    const std::uint64_t seed = placementSeed();

    std::vector<Workload> workloads;
    workloads.push_back({"octagon6x6", makeOctagon(6, 6)});
    workloads.push_back({"grid32x32", makeGrid(32, 32)});
    workloads.push_back({"octagon12x12", makeOctagon(12, 12)});

    banner("legalizer scaling: reference vs. bitset probes");

    std::vector<std::vector<std::string>> rows;
    bool all_identical = true;

    for (const Workload &wl : workloads) {
        const Netlist input = jitteredInstance(wl.topo, seed);
        std::printf("%s: %d qubits, %d cells\n", wl.name.c_str(),
                    input.numQubits(), input.numInstances());

        // --- Probe engines: bitwise-identical layouts, faster walls. ---
        LegalizerParams ref_params;
        ref_params.probeEngine = ProbeEngine::Reference;
        const TimedRun ref = runLegalizer(input, ref_params);

        LegalizerParams fast_params;
        fast_params.probeEngine = ProbeEngine::Fast;
        const TimedRun fast = runLegalizer(input, fast_params);

        const bool identical =
            bitwiseSameLayout(ref.netlist, fast.netlist) &&
            ref.result.qubitDisplacementUm ==
                fast.result.qubitDisplacementUm &&
            ref.result.segmentDisplacementUm ==
                fast.result.segmentDisplacementUm;
        all_identical = all_identical && identical;
        const double speedup =
            fast.seconds > 0.0 ? ref.seconds / fast.seconds : 0.0;

        std::printf("  probes: reference %7.2fs  fast %7.2fs  "
                    "%.2fx  bitwise-identical: %s\n",
                    ref.seconds, fast.seconds, speedup,
                    identical ? "yes" : "NO");
        std::printf("  fast sub-stages: spiral %.2fs  tetris %.2fs  "
                    "integration %.2fs\n",
                    fast.result.spiralSeconds,
                    fast.result.tetrisSeconds,
                    fast.result.integrationSeconds);

        rows.push_back(
            {CsvWriter::cell(wl.name),
             CsvWriter::cell(
                 static_cast<long long>(input.numQubits())),
             CsvWriter::cell(
                 static_cast<long long>(input.numInstances())),
             CsvWriter::cell(ref.seconds), CsvWriter::cell(fast.seconds),
             CsvWriter::cell(speedup),
             CsvWriter::cell(static_cast<long long>(identical)),
             CsvWriter::cell(fast.result.qubitDisplacementUm),
             CsvWriter::cell(fast.result.segmentDisplacementUm),
             CsvWriter::cell(fast.result.spiralSeconds),
             CsvWriter::cell(fast.result.tetrisSeconds),
             CsvWriter::cell(fast.result.integrationSeconds),
             CsvWriter::cell(ref.result.spiralSeconds),
             CsvWriter::cell(ref.result.tetrisSeconds)});
    }

    if (argc > 1) {
        CsvWriter csv(argv[1]);
        csv.header({"workload", "qubits", "cells", "ref_s", "fast_s",
                    "speedup", "identical", "qubit_disp_um",
                    "segment_disp_um", "spiral_s", "tetris_s",
                    "integration_s", "ref_spiral_s", "ref_tetris_s"});
        for (const auto &row : rows)
            csv.row(row);
        std::printf("wrote %s\n", argv[1]);
    }

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: fast-probe layouts diverged from "
                             "the reference engine\n");
        return 1;
    }
    return 0;
}

} // namespace
} // namespace qplacer::bench

int
main(int argc, char **argv)
{
    return qplacer::bench::run(argc, argv);
}
