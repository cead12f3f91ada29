/**
 * @file
 * 1024-qubit smoke for the prefix-summed threaded netlist builder: the
 * parallel fill must land every instance, net, and resonator at the
 * exact offset the sequential-append oracle (tests/oracles) puts it, pass
 * validate(), and populate the build.stages sub-timings the flow
 * surfaces. ctest -L assign.
 */

#include <gtest/gtest.h>

#include "freq/assigner.hpp"
#include "netlist/builder.hpp"
#include "oracles/oracles.hpp"
#include "pipeline/flow.hpp"
#include "topology/generators.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

TEST(BuilderScale, Grid32x32MatchesReferenceAppendOrder)
{
    const Topology topo = makeGrid(32, 32);
    const FrequencyAssigner assigner;
    const auto freqs = assigner.assign(topo);

    const Netlist ref =
        oracle::buildReference(topo, freqs, 0.72, PartitionParams{});

    ThreadPool pool(8);
    BuildStats stats;
    const Netlist fast =
        NetlistBuilder().build(topo, freqs, 0.72, &pool, &stats);

    ASSERT_EQ(fast.numQubits(), 1024);
    EXPECT_GT(fast.numInstances(), fast.numQubits());
    EXPECT_TRUE(bitwiseSameNetlist(ref, fast));
    EXPECT_NO_THROW(fast.validate());

    // The prefix-summed offsets must reproduce the sequential append
    // order: qubits first, then each coupler's segment chain
    // contiguously, with the qubit--chain--qubit nets in chain order.
    int next_instance = fast.numQubits();
    std::size_t next_net = 0;
    for (const Resonator &res : fast.resonators()) {
        ASSERT_FALSE(res.segments.empty());
        EXPECT_EQ(res.segments.front(), next_instance);
        for (std::size_t s = 0; s + 1 < res.segments.size(); ++s)
            EXPECT_EQ(res.segments[s + 1], res.segments[s] + 1);
        next_instance = res.segments.back() + 1;

        ASSERT_LT(next_net + res.segments.size(), fast.nets().size() + 1);
        EXPECT_EQ(fast.nets()[next_net].a, res.qubitA);
        EXPECT_EQ(fast.nets()[next_net].b, res.segments.front());
        EXPECT_EQ(fast.nets()[next_net + res.segments.size()].a,
                  res.segments.back());
        EXPECT_EQ(fast.nets()[next_net + res.segments.size()].b,
                  res.qubitB);
        next_net += res.segments.size() + 1;
    }
    EXPECT_EQ(next_instance, fast.numInstances());
    EXPECT_EQ(next_net, fast.nets().size());

    EXPECT_EQ(stats.threads, 8);
    EXPECT_GE(stats.segmentsSeconds, 0.0);
    EXPECT_GE(stats.instancesSeconds, 0.0);
    EXPECT_GE(stats.warmStartSeconds, 0.0);
    EXPECT_GE(stats.finalizeSeconds, 0.0);
    EXPECT_GT(stats.segmentsSeconds + stats.instancesSeconds +
                  stats.warmStartSeconds + stats.finalizeSeconds,
              0.0);
}

TEST(BuilderScale, FlowSurfacesAssignAndBuildStageTimings)
{
    FlowParams params;
    params.placer.maxIters = 30;
    const FlowResult result =
        QplacerFlow(params).run(makeGrid(4, 4));

    ASSERT_TRUE(result.status.ok());
    EXPECT_GE(result.buildStats.threads, 1);
    EXPECT_GT(result.assignStats.interferenceSeconds +
                  result.assignStats.qubitColorSeconds +
                  result.assignStats.resonatorGraphSeconds +
                  result.assignStats.resonatorColorSeconds,
              0.0);
    EXPECT_GT(result.buildStats.segmentsSeconds +
                  result.buildStats.instancesSeconds +
                  result.buildStats.warmStartSeconds +
                  result.buildStats.finalizeSeconds,
              0.0);
}

} // namespace
} // namespace qplacer
