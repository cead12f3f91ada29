/**
 * @file
 * Incremental re-place contract (pipeline/incremental.hpp): an empty
 * delta on an unchanged topology reproduces the prior layout bitwise
 * and skips the solve, a small delta re-places only its closure from
 * scratch and legalizes every instance, and the path degrades safely
 * (fresh instances, cancellation, invalid parameters) instead of
 * corrupting the layout.
 */

#include <gtest/gtest.h>

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

TEST(Incremental, EmptyDeltaReproducesPriorBitwise)
{
    const Topology topo = makeGrid(4, 4);
    const FlowParams params = quickParams(3, 200);
    PlacementSession session;

    const FlowResult cold = session.run(topo, params);
    ASSERT_TRUE(cold.status.ok());
    const PriorLayout prior = PriorLayout::capture(cold.netlist);
    EXPECT_EQ(prior.numInstances, cold.netlist.numInstances());

    const FlowResult warm = session.runIncremental(topo, params, prior);
    ASSERT_TRUE(warm.status.ok()) << warm.status.message;
    EXPECT_TRUE(warm.incremental.incremental);
    EXPECT_TRUE(warm.incremental.reusedPrior);
    EXPECT_EQ(warm.incremental.dirtyInstances, 0);
    EXPECT_EQ(warm.incremental.freshInstances, 0);
    EXPECT_TRUE(bitwiseSameLayout(cold.netlist, warm.netlist));
    EXPECT_TRUE(warm.legal.legal);
    // The solve was skipped outright, not merely shortened.
    EXPECT_EQ(warm.place.iterations, 0);
}

TEST(Incremental, SmallDeltaStaysLegalAndScopesWork)
{
    const Topology topo = makeGrid(5, 5);
    const FlowParams params = quickParams(1, 250);
    PlacementSession session;

    const FlowResult cold = session.run(topo, params);
    ASSERT_TRUE(cold.status.ok());
    const PriorLayout prior = PriorLayout::capture(cold.netlist);

    NetlistDelta delta;
    delta.dirtyQubits = {0, 7};
    const FlowResult warm =
        session.runIncremental(topo, params, prior, delta);
    ASSERT_TRUE(warm.status.ok()) << warm.status.message;
    EXPECT_FALSE(warm.incremental.reusedPrior);
    EXPECT_TRUE(warm.legal.legal);
    // The dirty closure covers the qubits plus their resonators, but
    // stays a strict subset of the chip.
    EXPECT_GT(warm.incremental.dirtyInstances, 2);
    EXPECT_LT(warm.incremental.dirtyInstances,
              warm.netlist.numInstances());
    // Legalization, like a cold run's, covers every instance.
    EXPECT_EQ(warm.incremental.movableInstances,
              warm.netlist.numInstances());
    // The warm solve respects the reduced iteration budget.
    EXPECT_LE(warm.place.iterations, params.incremental.maxIters);
}

TEST(Incremental, DeltaRunsAreDeterministic)
{
    const Topology topo = makeGrid(4, 4);
    const FlowParams params = quickParams(9, 200);
    PlacementSession session;

    const FlowResult cold = session.run(topo, params);
    ASSERT_TRUE(cold.status.ok());
    const PriorLayout prior = PriorLayout::capture(cold.netlist);

    NetlistDelta delta;
    delta.dirtyQubits = {2};
    const FlowResult a = session.runIncremental(topo, params, prior, delta);
    const FlowResult b = session.runIncremental(topo, params, prior, delta);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(bitwiseSameLayout(a.netlist, b.netlist));
}

TEST(Incremental, PriorFromLargerTopologyStillLegalizes)
{
    // Prior captured on a 3x3; re-place a 3x4: one column of fresh
    // instances placed among warm-started survivors.
    PlacementSession session;
    const FlowParams params = quickParams(4, 200);
    const FlowResult small = session.run(makeGrid(3, 3), params);
    ASSERT_TRUE(small.status.ok());
    const PriorLayout prior = PriorLayout::capture(small.netlist);

    const Topology bigger = makeGrid(3, 4);
    const FlowResult warm =
        session.runIncremental(bigger, params, prior);
    ASSERT_TRUE(warm.status.ok()) << warm.status.message;
    EXPECT_FALSE(warm.incremental.reusedPrior);
    EXPECT_GT(warm.incremental.freshInstances, 0);
    EXPECT_GT(warm.incremental.mappedInstances, 0);
    EXPECT_TRUE(warm.legal.legal);
}

TEST(Incremental, HumanModeRejectedViaStatus)
{
    const Topology topo = makeGrid(3, 3);
    PlacementSession session;
    const FlowResult cold = session.run(topo, quickParams(1, 60));
    ASSERT_TRUE(cold.status.ok());
    const PriorLayout prior = PriorLayout::capture(cold.netlist);

    FlowParams params = quickParams(1, 60);
    params.mode = PlacerMode::Human;
    const FlowResult warm = session.runIncremental(topo, params, prior);
    EXPECT_EQ(warm.status.code, FlowCode::InvalidParams);
}

TEST(Incremental, InvalidKnobsRejectedViaStatus)
{
    const Topology topo = makeGrid(3, 3);
    PlacementSession session;
    const FlowResult cold = session.run(topo, quickParams(1, 60));
    ASSERT_TRUE(cold.status.ok());
    const PriorLayout prior = PriorLayout::capture(cold.netlist);

    FlowParams params = quickParams(1, 60);
    params.incremental.maxIters = 0;
    EXPECT_EQ(session.runIncremental(topo, params, prior).status.code,
              FlowCode::InvalidParams);
}

} // namespace
} // namespace qplacer
