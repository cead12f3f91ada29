/**
 * @file
 * Batch placement throughput: N independent jobs on one grid16x16
 * device, a serial loop of lone PlacementSession::run calls vs.
 * PlacementSession::runBatch on a shared worker pool. Reports placements/sec for both and the
 * aggregate speedup, and *gates* the determinism contract: every batch
 * layout must be bitwise-identical to its serial counterpart (exit 1
 * otherwise). The speedup itself is gated in nightly CI from the CSV
 * (a 1-core box legitimately reports ~1x).
 *
 * Environment overrides:
 *   QP_JOBS           jobs in the batch (default 8)
 *   QP_BATCH_WORKERS  concurrent jobs (default 8)
 *   QP_MAX_ITERS      placer iteration budget (default 300)
 *   QP_SEED           base seed; job i runs with seed + i (default 1)
 *
 * Usage: bench_batch_throughput [out.csv]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/timer.hpp"

namespace qplacer::bench {
namespace {

int
run(int argc, char **argv)
{
    const int jobs = static_cast<int>(Config::envInt("QP_JOBS", 8));
    const int workers =
        static_cast<int>(Config::envInt("QP_BATCH_WORKERS", 8));
    const int max_iters =
        static_cast<int>(Config::envInt("QP_MAX_ITERS", 300));
    const std::uint64_t seed = placementSeed();

    const Topology topo = makeGrid(16, 16);
    banner("batch throughput: PlacementSession vs. serial flow loop");
    std::printf("device %s: %d qubits, %d jobs, %d workers, "
                "%d max iters\n",
                topo.name.c_str(), topo.numQubits(), jobs, workers,
                max_iters);

    // Per-job parameters: single-threaded placement, as concurrent
    // batch jobs place, with per-job seeds.
    const auto jobParams = [&](int j) {
        FlowParams params;
        params.placer.maxIters = max_iters;
        params.placer.threads = 1;
        params.placer.seed = seed + static_cast<std::uint64_t>(j);
        return params;
    };

    // --- Serial reference: one fresh session's run per job. ---
    Timer serial_timer;
    std::vector<FlowResult> serial;
    serial.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j)
        serial.push_back(PlacementSession().run(topo, jobParams(j)));
    const double serial_s = serial_timer.seconds();

    // --- Batch: same jobs, concurrently, on one shared pool. ---
    PlacementSession session(workers);
    std::vector<FlowParams> batch;
    batch.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j)
        batch.push_back(jobParams(j));
    Timer batch_timer;
    const std::vector<FlowResult> batched = session.runBatch(topo, batch);
    const double batch_s = batch_timer.seconds();

    // --- Bitwise gate: batch == serial, job by job. ---
    bool identical = batched.size() == serial.size();
    for (std::size_t j = 0; identical && j < batched.size(); ++j) {
        identical = serial[j].status.ok() && batched[j].status.ok() &&
                    bitwiseSameLayout(serial[j].netlist,
                                      batched[j].netlist) &&
                    serial[j].place.finalHpwl ==
                        batched[j].place.finalHpwl;
    }

    const double serial_pps =
        serial_s > 0.0 ? static_cast<double>(jobs) / serial_s : 0.0;
    const double batch_pps =
        batch_s > 0.0 ? static_cast<double>(jobs) / batch_s : 0.0;
    const double speedup = batch_s > 0.0 ? serial_s / batch_s : 0.0;

    std::printf("serial loop : %8.2fs  (%.3f placements/sec)\n",
                serial_s, serial_pps);
    std::printf("batch       : %8.2fs  (%.3f placements/sec)\n", batch_s,
                batch_pps);
    std::printf("speedup     : %8.2fx  bitwise-identical: %s\n", speedup,
                identical ? "yes" : "NO");

    if (argc > 1) {
        CsvWriter csv(argv[1]);
        csv.header({"topology", "jobs", "workers", "max_iters",
                    "serial_s", "batch_s", "serial_pps", "batch_pps",
                    "speedup", "identical"});
        csv.row({CsvWriter::cell(topo.name),
                 CsvWriter::cell(static_cast<long long>(jobs)),
                 CsvWriter::cell(static_cast<long long>(workers)),
                 CsvWriter::cell(static_cast<long long>(max_iters)),
                 CsvWriter::cell(serial_s), CsvWriter::cell(batch_s),
                 CsvWriter::cell(serial_pps), CsvWriter::cell(batch_pps),
                 CsvWriter::cell(speedup),
                 CsvWriter::cell(static_cast<long long>(identical))});
        std::printf("wrote %s\n", argv[1]);
    }

    if (!identical) {
        std::fprintf(stderr, "FAIL: batch layouts diverged from the "
                             "serial reference\n");
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
