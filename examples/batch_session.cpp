/**
 * @file
 * Seed-sweep with PlacementSession: place one device under several
 * seeds concurrently, watch progress through a FlowObserver, and keep
 * the layout with the fewest frequency hotspots -- the service-style
 * usage of the staged flow API.
 *
 * Build & run:
 *   cmake -B build -DQPLACER_BUILD_EXAMPLES=ON && cmake --build build
 *   ./build/examples/example_batch_session
 */

#include <atomic>
#include <cstdio>

#include "qplacer.hpp"

using namespace qplacer;

namespace {

/** Counts stage events across concurrently running jobs. */
class ProgressCounter : public FlowObserver
{
  public:
    void onStageEnd(const FlowContext &, const std::string &,
                    double) override
    {
        stagesFinished.fetch_add(1, std::memory_order_relaxed);
    }

    std::atomic<int> stagesFinished{0};
};

} // namespace

int
main()
{
    const Topology topo = makeGrid(4, 4);
    std::printf("device: %s (%d qubits, %d couplers)\n", topo.name.c_str(),
                topo.numQubits(), topo.numCouplers());

    // One batch: the same device and knobs under 6 different seeds
    // (the homogeneous overload shares the one topology).
    FlowParams params;
    params.placer.maxIters = 300;
    std::vector<FlowParams> jobs(6, params);
    for (std::size_t j = 0; j < jobs.size(); ++j)
        jobs[j].placer.seed = j + 1;

    PlacementSession session(/*workers=*/0); // Auto: one per core, capped.
    ProgressCounter progress;
    session.setObserver(&progress);

    const std::vector<FlowResult> results = session.runBatch(topo, jobs);

    std::printf("%-6s %-8s %-10s %-8s %-8s\n", "seed", "status", "HPWL",
                "Ph(%)", "legal");
    std::size_t best = results.size(); // "none succeeded" sentinel.
    for (std::size_t j = 0; j < results.size(); ++j) {
        const FlowResult &r = results[j];
        std::printf("%-6zu %-8s %-10.0f %-8.2f %s\n", j + 1,
                    flowCodeName(r.status.code), r.place.finalHpwl,
                    r.hotspots.phPercent, r.legal.legal ? "yes" : "no");
        if (r.status.ok() &&
            (best == results.size() ||
             r.hotspots.phPercent < results[best].hotspots.phPercent))
            best = j;
    }
    std::printf("\n%d stage completions observed across the batch\n",
                progress.stagesFinished.load());
    if (best == results.size()) {
        std::fprintf(stderr, "no job succeeded\n");
        return 1;
    }
    std::printf("best seed: %zu (Ph %.2f%%) -> batch_best.svg\n", best + 1,
                results[best].hotspots.phPercent);
    writeLayoutSvg(results[best].netlist, "batch_best.svg");
    return 0;
}
