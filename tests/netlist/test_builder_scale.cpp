/**
 * @file
 * 1024-qubit smoke for the prefix-summed netlist builder: the fill
 * must land every instance, net, and resonator at the exact offset the
 * sequential-append oracle (tests/oracles) puts it, pass validate(),
 * and populate the build.stages sub-timings the flow surfaces.
 * ctest -L assign.
 */

#include <gtest/gtest.h>

#include "freq/assigner.hpp"
#include "netlist/builder.hpp"
#include "oracles/oracles.hpp"
#include "pipeline/session.hpp"
#include "topology/generators.hpp"
#include "util/trace.hpp"

namespace qplacer {
namespace {

TEST(BuilderScale, Grid32x32MatchesReferenceAppendOrder)
{
    const Topology topo = makeGrid(32, 32);
    const FrequencyAssigner assigner;
    const auto freqs = assigner.assign(topo);

    const Netlist ref =
        oracle::buildReference(topo, freqs, 0.72, PartitionParams{});

    Trace trace;
    const Netlist fast = NetlistBuilder().build(topo, freqs, 0.72, &trace);

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

    // One top-level span per sub-stage ("finalize" sums its two parts).
    ASSERT_EQ(trace.nodes().size(), 4u);
    EXPECT_EQ(trace.nodes()[0].name, "segments");
    EXPECT_EQ(trace.nodes()[1].name, "instances");
    EXPECT_EQ(trace.nodes()[2].name, "finalize");
    EXPECT_EQ(trace.nodes()[3].name, "warm_start");
    double total = 0.0;
    for (const Trace::Node &node : trace.nodes())
        total += node.seconds;
    EXPECT_GT(total, 0.0);
}

TEST(BuilderScale, FlowSurfacesAssignAndBuildStageTimings)
{
    FlowParams params;
    params.placer.maxIters = 30;
    params.placer.threads = 2;
    const FlowResult result = PlacementSession().run(makeGrid(4, 4), params);

    ASSERT_TRUE(result.status.ok());
    // Every sub-stage span sits under its stage's span.
    const Trace &trace = result.trace;
    const int flow = trace.find(Trace::kRoot, kFlowSpan);
    const int assign = trace.find(flow, "assign");
    const int build = trace.find(flow, "build");
    ASSERT_GE(assign, 0);
    ASSERT_GE(build, 0);
    int assign_subs = 0;
    int build_subs = 0;
    for (const Trace::Node &node : trace.nodes()) {
        assign_subs += node.parent == assign;
        build_subs += node.parent == build;
    }
    EXPECT_EQ(assign_subs, 4);
    EXPECT_EQ(build_subs, 4);
    EXPECT_GT(trace.seconds({kFlowSpan, "assign", "qubit_color"}), 0.0);
    EXPECT_GT(trace.seconds({kFlowSpan, "build", "instances"}), 0.0);
}

} // namespace
} // namespace qplacer
