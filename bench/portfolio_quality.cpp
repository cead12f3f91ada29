/**
 * @file
 * Portfolio placement quality: the plain single-seed flow vs. a
 * multi-start portfolio with annealing detailed placement on the
 * golden topologies (grid8x8, heavyhex3x5). Reports HPWL and wall
 * time for both and *gates* the dominance contract in-driver: the
 * portfolio layout must be legal and its HPWL no worse than the
 * single-seed flow's (exit 1 otherwise). The base seed is exempt from
 * pruning and the annealer never worsens HPWL, so this is a
 * deterministic guarantee, not a statistical one; nightly CI re-gates
 * it from the CSV.
 *
 * Environment overrides:
 *   QP_PORTFOLIO_SEEDS  candidates per portfolio (default 4)
 *   QP_DETAILED_ITERS   annealing sweeps on the winner (default 30)
 *   QP_MAX_ITERS        placer iteration budget (default 400)
 *   QP_SEED             base seed (default 1)
 *
 * Usage: bench_portfolio_quality [out.csv]
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "legal/anneal.hpp"
#include "pipeline/session.hpp"
#include "util/timer.hpp"

namespace qplacer::bench {
namespace {

int
run(int argc, char **argv)
{
    const int seeds =
        static_cast<int>(Config::envInt("QP_PORTFOLIO_SEEDS", 4));
    const int detailed_iters =
        static_cast<int>(Config::envInt("QP_DETAILED_ITERS", 30));
    const int max_iters =
        static_cast<int>(Config::envInt("QP_MAX_ITERS", 400));
    const std::uint64_t seed = placementSeed();

    banner("portfolio quality: single seed vs. portfolio + detailed");
    std::printf("%d candidate seeds, %d detailed sweeps, %d max iters\n",
                seeds, detailed_iters, max_iters);

    std::vector<Topology> topologies;
    topologies.push_back(makeGrid(8, 8));
    topologies.push_back(makeHeavyHex(3, 5));

    std::unique_ptr<CsvWriter> csv;
    if (argc > 1) {
        csv = std::make_unique<CsvWriter>(argv[1]);
        csv->header({"topology", "seeds", "detailed_iters", "max_iters",
                     "single_s", "portfolio_s", "single_hpwl_um",
                     "portfolio_hpwl_um", "improvement_pct", "winner_seed",
                     "legal", "dominates"});
    }

    bool all_dominate = true;
    for (const Topology &topo : topologies) {
        FlowParams params;
        params.placer.maxIters = max_iters;
        params.placer.threads = 1;
        params.placer.seed = seed;

        // --- Single-seed reference flow. ---
        PlacementSession session;
        Timer single_timer;
        const FlowResult single = session.run(topo, params);
        const double single_s = single_timer.seconds();

        // --- Portfolio + detailed on the same budget per candidate. ---
        FlowParams folio_params = params;
        folio_params.detailed.enabled = true;
        folio_params.detailed.iters = detailed_iters;
        folio_params.portfolio.seeds = seeds;
        Timer folio_timer;
        const FlowResult folio = session.runPortfolio(topo, folio_params);
        const double folio_s = folio_timer.seconds();

        const bool ok = single.status.ok() && folio.status.ok();
        const double single_hpwl =
            ok ? layoutHpwl(single.netlist) : 0.0;
        const double folio_hpwl = ok ? layoutHpwl(folio.netlist) : 0.0;
        const bool dominates =
            ok && folio.legal.legal && folio_hpwl <= single_hpwl;
        all_dominate = all_dominate && dominates;
        const double improvement_pct =
            single_hpwl > 0.0
                ? 100.0 * (single_hpwl - folio_hpwl) / single_hpwl
                : 0.0;

        std::printf("%-12s single %10.1f um (%6.2fs) | portfolio "
                    "%10.1f um (%6.2fs) | %+5.2f%% | winner seed %llu | "
                    "%s\n",
                    topo.name.c_str(), single_hpwl, single_s, folio_hpwl,
                    folio_s, improvement_pct,
                    static_cast<unsigned long long>(
                        folio.portfolioStats.winnerSeed),
                    dominates ? "ok" : "WORSE");

        if (csv) {
            csv->row({CsvWriter::cell(topo.name),
                      CsvWriter::cell(static_cast<long long>(seeds)),
                      CsvWriter::cell(
                          static_cast<long long>(detailed_iters)),
                      CsvWriter::cell(static_cast<long long>(max_iters)),
                      CsvWriter::cell(single_s), CsvWriter::cell(folio_s),
                      CsvWriter::cell(single_hpwl),
                      CsvWriter::cell(folio_hpwl),
                      CsvWriter::cell(improvement_pct),
                      CsvWriter::cell(std::to_string(
                          folio.portfolioStats.winnerSeed)),
                      CsvWriter::cell(
                          static_cast<long long>(folio.legal.legal)),
                      CsvWriter::cell(
                          static_cast<long long>(dominates))});
        }
    }
    if (csv)
        std::printf("wrote %s\n", argv[1]);

    if (!all_dominate) {
        std::fprintf(stderr, "FAIL: portfolio + detailed lost to the "
                             "single-seed flow\n");
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
