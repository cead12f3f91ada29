/**
 * @file
 * Multi-start portfolio contract (ctest -L anneal):
 *
 *  - portfolio.seeds = 1 is the exact single-seed flow,
 *  - every candidate runs the full flow, and the winner is the least
 *    by (legal first, HPWL, seed offset),
 *  - replaying the winning seed through a serial flow reproduces the
 *    portfolio's layout bit for bit,
 *  - portfolio + detailed placement never loses to the plain
 *    single-seed flow on the golden topologies at seeds {1,2,3} (the
 *    base seed is a candidate and the annealer never worsens HPWL, so
 *    this holds deterministically, not just in expectation),
 *  - detailed.iters is the detailed stage's one switch: the default
 *    (0) flow has no detailed stage.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "pipeline/session.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

FlowParams
quickParams(std::uint64_t seed, int max_iters)
{
    FlowParams params;
    params.placer.seed = seed;
    params.placer.maxIters = max_iters;
    params.placer.threads = 1;
    return params;
}

TEST(Portfolio, SeedsOneIsExactlyTheSingleSeedFlow)
{
    const Topology topo = makeGrid(4, 4);
    const FlowParams params = quickParams(5, 150);
    FlowParams one_seed = params;
    one_seed.portfolio.seeds = 1;

    PlacementSession session;
    const FlowResult plain = session.run(topo, params);
    const FlowResult portfolio = session.run(topo, one_seed);

    ASSERT_TRUE(plain.status.ok());
    ASSERT_TRUE(portfolio.status.ok());
    EXPECT_FALSE(portfolio.portfolioStats.portfolio);
    EXPECT_TRUE(bitwiseSameLayout(plain.netlist, portfolio.netlist));
    EXPECT_EQ(plain.place.finalHpwl, portfolio.place.finalHpwl);
    EXPECT_EQ(plain.hotspots.phPercent, portfolio.hotspots.phPercent);
}

TEST(Portfolio, WinnerReplayIsBitwiseIdenticalToSerialRun)
{
    const Topology topo = makeGrid(4, 4);
    FlowParams params = quickParams(1, 200);
    params.detailed.iters = 10;
    params.portfolio.seeds = 4;

    PlacementSession session(/*workers=*/2);
    const FlowResult result = session.run(topo, params);
    ASSERT_TRUE(result.status.ok());
    ASSERT_TRUE(result.portfolioStats.portfolio);

    // Replay the winning seed through an independent serial flow with
    // the same knobs: the portfolio's layout must reproduce bit for
    // bit (every candidate runs single-threaded for exactly this).
    FlowParams replay = params;
    replay.placer.seed = result.portfolioStats.winnerSeed;
    replay.portfolio.seeds = 1;
    const FlowResult serial = PlacementSession().run(topo, replay);
    ASSERT_TRUE(serial.status.ok());
    EXPECT_TRUE(bitwiseSameLayout(serial.netlist, result.netlist));
    EXPECT_EQ(serial.place.finalHpwl, result.place.finalHpwl);
}

TEST(Portfolio, StatsDescribeEveryCandidate)
{
    const Topology topo = makeGrid(4, 4);
    FlowParams params = quickParams(1, 200);
    params.portfolio.seeds = 4;

    PlacementSession session;
    const FlowResult result = session.run(topo, params);
    ASSERT_TRUE(result.status.ok());

    const PortfolioStats &stats = result.portfolioStats;
    EXPECT_EQ(stats.seeds, 4);
    ASSERT_EQ(stats.candidates.size(), 4u);
    int winners = 0;
    std::size_t best = 0;
    bool best_legal = false;
    for (std::size_t i = 0; i < stats.candidates.size(); ++i) {
        const PortfolioCandidate &cand = stats.candidates[i];
        EXPECT_EQ(cand.seed, 1 + static_cast<std::uint64_t>(i));
        if (cand.winner) {
            ++winners;
            EXPECT_EQ(cand.seed, stats.winnerSeed);
        }

        // Every candidate ran the full flow: its final HPWL is that of
        // a lone single-seed run of its seed.
        FlowParams alone = params;
        alone.placer.seed = cand.seed;
        alone.portfolio.seeds = 1;
        const FlowResult single = PlacementSession().run(topo, alone);
        ASSERT_TRUE(single.status.ok());
        EXPECT_EQ(cand.finalHpwl, single.netlist.hpwl()) << cand.seed;

        // The least by (legal first, HPWL, offset): a strict
        // improvement only, so the lower offset keeps a tie.
        bool better = cand.finalHpwl < stats.candidates[best].finalHpwl;
        if (single.legal.legal != best_legal)
            better = single.legal.legal;
        if (i == 0 || better) {
            best = i;
            best_legal = single.legal.legal;
        }
    }
    EXPECT_EQ(winners, 1);
    EXPECT_TRUE(stats.candidates[best].winner);
    EXPECT_EQ(result.netlist.hpwl(), stats.candidates[best].finalHpwl);
}

// Dominance over a seed set: 400 placer iterations, four candidates,
// 30 annealing sweeps on the winner.
void
checkPortfolioDominatesSingleSeed(const Topology &topo)
{
    constexpr std::uint64_t kSeeds[] = {1, 2, 3};
    for (const std::uint64_t seed : kSeeds) {
        SCOPED_TRACE(::testing::Message() << topo.name << " seed " << seed);
        const FlowParams single_params = quickParams(seed, 400);
        PlacementSession session;
        const FlowResult single = session.run(topo, single_params);
        ASSERT_TRUE(single.status.ok());

        FlowParams portfolio_params = single_params;
        portfolio_params.detailed.iters = 30;
        portfolio_params.portfolio.seeds = 4;
        const FlowResult portfolio = session.run(topo, portfolio_params);
        ASSERT_TRUE(portfolio.status.ok());

        const double single_hpwl = single.netlist.hpwl();
        const double portfolio_hpwl = portfolio.netlist.hpwl();
        EXPECT_TRUE(portfolio.legal.legal);
        EXPECT_LE(portfolio_hpwl, single_hpwl);
        std::printf("%s seed %llu: HPWL single %.1f um, portfolio %.1f um "
                    "(%+.1f%%)\n",
                    topo.name.c_str(), static_cast<unsigned long long>(seed),
                    single_hpwl, portfolio_hpwl,
                    100.0 * (single_hpwl - portfolio_hpwl) / single_hpwl);
    }
}

TEST(Portfolio, DominatesSingleSeedOnGrid8x8)
{
    checkPortfolioDominatesSingleSeed(makeGrid(8, 8));
}

TEST(Portfolio, DominatesSingleSeedOnHeavyHex3x5)
{
    checkPortfolioDominatesSingleSeed(makeHeavyHex(3, 5));
}

TEST(Portfolio, DefaultFlowHasNoDetailedStage)
{
    const auto hasDetailedStage = [](const FlowParams &params) {
        for (const FlowStage &stage : makeDefaultStages(params))
            if (std::string(stage.name) == "detailed")
                return true;
        return false;
    };
    FlowParams params;
    EXPECT_EQ(params.detailed.iters, 0);
    EXPECT_FALSE(hasDetailedStage(params));
    params.detailed.iters = 1;
    EXPECT_TRUE(hasDetailedStage(params));

    const FlowResult r = PlacementSession().run(makeGrid(4, 4),
                                                quickParams(9, 150));
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.detailed.ran);
    const int flow = r.trace.find(Trace::kRoot, kFlowSpan);
    ASSERT_GE(flow, 0);
    EXPECT_GE(r.trace.find(flow, "legalize"), 0);
    EXPECT_EQ(r.trace.find(flow, "detailed"), -1);
}

TEST(Portfolio, CancelledSessionCancelsThePortfolio)
{
    PlacementSession session(/*workers=*/2);
    session.cancelToken().cancel();
    FlowParams params = quickParams(1, 100);
    params.portfolio.seeds = 3;
    const FlowResult r = session.run(makeGrid(3, 3), params);
    EXPECT_EQ(r.status.code, FlowCode::Cancelled);
    EXPECT_TRUE(r.portfolioStats.portfolio);
    EXPECT_EQ(r.portfolioStats.candidates.size(), 3u);
}

TEST(Portfolio, InvalidKnobsAreRejectedUpFront)
{
    const Topology topo = makeGrid(3, 3);
    PlacementSession session;

    FlowParams bad_seeds = quickParams(1, 100);
    bad_seeds.portfolio.seeds = 0;
    EXPECT_EQ(session.run(topo, bad_seeds).status.code,
              FlowCode::InvalidParams);

    FlowParams human = quickParams(1, 100);
    human.mode = PlacerMode::Human;
    human.portfolio.seeds = 4;
    EXPECT_EQ(session.run(topo, human).status.code,
              FlowCode::InvalidParams);

    FlowParams bad_iters = quickParams(1, 100);
    bad_iters.detailed.iters = -1;
    EXPECT_EQ(session.run(topo, bad_iters).status.code,
              FlowCode::InvalidParams);
}

} // namespace
} // namespace qplacer
