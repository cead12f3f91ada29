/**
 * @file
 * Placement-as-a-service throughput: a stream of jobs through a running
 * PlacementServer, cold runs vs. incremental re-places of a shared
 * base layout (small per-job deltas, the design-iteration workload the
 * service exists for). Reports placements/sec for both and the
 * incremental speedup, and *gates* two contracts (exit 1 otherwise):
 * every cold result must be bitwise-identical to a lone serial session
 * run with the same seed, and an empty-delta re-place must reproduce
 * the base layout exactly. The speedup itself is gated in nightly CI
 * from the CSV.
 *
 * Environment overrides:
 *   QP_JOBS           jobs per phase (default 8)
 *   QP_SERVE_WORKERS  server workers (default 2)
 *   QP_MAX_ITERS      cold placer iteration budget (default 300)
 *   QP_SEED           cold-phase base seed; job i runs seed + i
 *
 * Usage: bench_serve_throughput [out.csv]
 */

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "service/server.hpp"
#include "util/timer.hpp"

namespace qplacer::bench {
namespace {

/** Collects result layouts by job id (the sink runs on pool threads). */
class ResultStore
{
  public:
    void
    operator()(const JsonValue &response)
    {
        const JsonValue *type = response.find("type");
        if (!type || type->asString() != "result")
            return;
        const JsonValue *layout = response.find("layout");
        std::lock_guard<std::mutex> lock(mu_);
        layouts_[response.find("id")->asString()] =
            layout ? layout->serialize() : std::string();
    }

    std::string
    layout(const std::string &id) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = layouts_.find(id);
        return it == layouts_.end() ? std::string() : it->second;
    }

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::string> layouts_;
};

int
run(int argc, char **argv)
{
    const int jobs = static_cast<int>(Config::envInt("QP_JOBS", 8));
    const int workers =
        static_cast<int>(Config::envInt("QP_SERVE_WORKERS", 2));
    const int max_iters =
        static_cast<int>(Config::envInt("QP_MAX_ITERS", 300));
    const std::uint64_t seed = placementSeed();

    const Topology topo = makeGrid(16, 16);
    banner("serve throughput: cold jobs vs. incremental re-place");
    std::printf("device %s: %d qubits, %d jobs/phase, %d workers, "
                "%d max iters\n",
                topo.name.c_str(), topo.numQubits(), jobs, workers,
                max_iters);

    ServerOptions options;
    options.workers = workers;
    PlacementServer server(options);
    ResultStore store;
    const ResponseSink sink = [&store](const JsonValue &r) { store(r); };

    // The server resolves specs, not Topology objects; register the
    // device under a parametric name it can rebuild.
    const std::string spec = "grid16x16";

    // --- Cold phase: independent jobs, per-job seeds. ---
    Timer cold_timer;
    for (int j = 0; j < jobs; ++j) {
        SubmitRequest req;
        req.id = "cold" + std::to_string(j);
        req.topology = spec;
        req.seed = seed + static_cast<std::uint64_t>(j);
        req.set.set("placer.maxIters", std::to_string(max_iters));
        req.wantLayout = true;
        server.submit(req, sink);
    }
    server.drain();
    const double cold_s = cold_timer.seconds();

    // --- Incremental phase: re-place cold0 with one dirty qubit. ---
    Timer incr_timer;
    for (int j = 0; j < jobs; ++j) {
        SubmitRequest req;
        req.id = "incr" + std::to_string(j);
        req.topology = spec;
        req.seed = seed;
        req.set.set("placer.maxIters", std::to_string(max_iters));
        req.wantLayout = true;
        req.baseId = "cold0";
        req.dirtyQubits = {j % topo.numQubits()};
        server.submit(req, sink);
    }
    server.drain();
    const double incr_s = incr_timer.seconds();

    // --- Gate 1: cold results match lone serial runs bitwise. ---
    bool identical = true;
    for (int j = 0; j < jobs && identical; ++j) {
        FlowParams params;
        params.placer.maxIters = max_iters;
        params.placer.threads = 1; // The server's concurrent-job mode.
        params.placer.seed = seed + static_cast<std::uint64_t>(j);
        const FlowResult serial = PlacementSession().run(topo, params);
        identical = serial.status.ok() &&
                    store.layout("cold" + std::to_string(j)) ==
                    layoutJson(serial.netlist).serialize();
    }

    // --- Gate 2: an empty delta reproduces the base bitwise. ---
    {
        SubmitRequest req;
        req.id = "replay";
        req.topology = spec;
        req.seed = seed;
        req.set.set("placer.maxIters", std::to_string(max_iters));
        req.wantLayout = true;
        req.baseId = "cold0";
        server.submit(req, sink);
        server.drain();
        identical = identical &&
                    !store.layout("replay").empty() &&
                    store.layout("replay") == store.layout("cold0");
    }

    const double cold_pps =
        cold_s > 0.0 ? static_cast<double>(jobs) / cold_s : 0.0;
    const double incr_pps =
        incr_s > 0.0 ? static_cast<double>(jobs) / incr_s : 0.0;
    const double speedup = incr_s > 0.0 ? cold_s / incr_s : 0.0;

    std::printf("cold        : %8.2fs  (%.3f placements/sec)\n", cold_s,
                cold_pps);
    std::printf("incremental : %8.2fs  (%.3f placements/sec)\n", incr_s,
                incr_pps);
    std::printf("speedup     : %8.2fx  bitwise gates: %s\n", speedup,
                identical ? "pass" : "FAIL");

    if (argc > 1) {
        CsvWriter csv(argv[1]);
        csv.header({"topology", "jobs", "workers", "max_iters", "cold_s",
                    "incr_s", "cold_pps", "incr_pps", "speedup",
                    "identical"});
        csv.row({CsvWriter::cell(topo.name),
                 CsvWriter::cell(static_cast<long long>(jobs)),
                 CsvWriter::cell(static_cast<long long>(server.workers())),
                 CsvWriter::cell(static_cast<long long>(max_iters)),
                 CsvWriter::cell(cold_s), CsvWriter::cell(incr_s),
                 CsvWriter::cell(cold_pps), CsvWriter::cell(incr_pps),
                 CsvWriter::cell(speedup),
                 CsvWriter::cell(static_cast<long long>(identical))});
        std::printf("wrote %s\n", argv[1]);
    }

    if (!identical) {
        std::fprintf(stderr, "FAIL: service results diverged from the "
                             "serial / prior reference\n");
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
