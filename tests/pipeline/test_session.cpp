/**
 * @file
 * PlacementSession determinism contract: a concurrent batch must be
 * bitwise-identical to lone runs with the same seeds, and a second
 * run in the same session must reproduce a fresh session's run
 * exactly.
 */

#include <gtest/gtest.h>

#include "pipeline/session.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

/** Flow parameters for a quick, deterministic serial placement. */
FlowParams
quickParams(std::uint64_t seed, int max_iters)
{
    FlowParams params;
    params.placer.seed = seed;
    params.placer.maxIters = max_iters;
    params.placer.threads = 1;
    return params;
}

void
expectBitwiseEqualResults(const FlowResult &serial, const FlowResult &batch)
{
    ASSERT_TRUE(batch.status.ok())
        << flowCodeName(batch.status.code) << ": " << batch.status.message;
    EXPECT_TRUE(bitwiseSameLayout(serial.netlist, batch.netlist));
    EXPECT_EQ(serial.place.iterations, batch.place.iterations);
    EXPECT_EQ(serial.place.finalOverflow, batch.place.finalOverflow);
    EXPECT_EQ(serial.place.finalHpwl, batch.place.finalHpwl);
    EXPECT_EQ(serial.legal.legal, batch.legal.legal);
    EXPECT_EQ(serial.hotspots.phPercent, batch.hotspots.phPercent);
}

void
checkBatchMatchesSerial(const Topology &topo, int max_iters, int jobs,
                        int workers)
{
    // Reference: independent lone runs, one fresh session per seed.
    std::vector<FlowResult> serial;
    for (int j = 0; j < jobs; ++j) {
        serial.push_back(PlacementSession().run(
            topo, quickParams(1 + static_cast<std::uint64_t>(j), max_iters)));
    }

    PlacementSession session(workers);
    std::vector<FlowParams> batch;
    for (int j = 0; j < jobs; ++j)
        batch.push_back(
            quickParams(1 + static_cast<std::uint64_t>(j), max_iters));
    const std::vector<FlowResult> results = session.runBatch(topo, batch);

    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t j = 0; j < results.size(); ++j)
        expectBitwiseEqualResults(serial[j], results[j]);
}

TEST(Session, BatchMatchesSerialBitwiseOnGrid8x8)
{
    checkBatchMatchesSerial(makeGrid(8, 8), /*max_iters=*/120, /*jobs=*/2,
                            /*workers=*/2);
}

TEST(Session, BatchMatchesSerialBitwiseOnHeavyHex3x5)
{
    checkBatchMatchesSerial(makeHeavyHex(3, 5), /*max_iters=*/250,
                            /*jobs=*/3, /*workers=*/2);
}

TEST(Session, SerialBatchMatchesSerialToo)
{
    // workers=1 takes the in-order path (jobs keep their own thread
    // request); results must be identical to the concurrent contract.
    checkBatchMatchesSerial(makeGrid(4, 4), /*max_iters=*/120, /*jobs=*/2,
                            /*workers=*/1);
}

TEST(Session, FreshAndSameSessionRunsMatchAtTwoThreads)
{
    const Topology topo = makeGrid(4, 4);
    FlowParams params = quickParams(7, 120);
    params.placer.threads = 2; // Each run builds a two-thread pool.

    const FlowResult fresh_a = PlacementSession().run(topo, params);
    const FlowResult fresh_b = PlacementSession().run(topo, params);

    // Nothing a run leaves in its session changes the next run.
    PlacementSession session;
    const FlowResult session_a = session.run(topo, params);
    const FlowResult session_b = session.run(topo, params);

    expectBitwiseEqualResults(fresh_a, session_a);
    expectBitwiseEqualResults(fresh_b, session_b);
}

TEST(Session, DifferentSeedsProduceDifferentLayouts)
{
    const Topology topo = makeGrid(3, 3);
    PlacementSession session(/*workers=*/2);

    const std::vector<FlowParams> jobs = {quickParams(1, 120),
                                          quickParams(2, 120)};
    const std::vector<FlowResult> results = session.runBatch(topo, jobs);

    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].status.ok());
    ASSERT_TRUE(results[1].status.ok());
    EXPECT_FALSE(bitwiseSameLayout(results[0].netlist, results[1].netlist));
}

TEST(Session, EmptyBatchIsFine)
{
    PlacementSession session;
    EXPECT_TRUE(session.runBatch(makeGrid(3, 3), {}).empty());
}

} // namespace
} // namespace qplacer
