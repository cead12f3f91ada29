#include <gtest/gtest.h>

#include <thread>

#include "util/trace.hpp"

namespace qplacer {
namespace {

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(Trace, SpansNestUnderTheInnermostOpenSpan)
{
    Trace trace;
    {
        Trace::Span flow(&trace, "flow");
        {
            Trace::Span stage(&trace, "assign");
            Trace::Span sub(&trace, "interference");
            sleepMs(2);
        }
        Trace::Span stage(&trace, "build");
        sleepMs(2);
    }
    Trace::Span after(&trace, "after");
    after.stop();

    const auto &nodes = trace.nodes();
    ASSERT_EQ(nodes.size(), 5u);
    EXPECT_EQ(nodes[0].name, "flow");
    EXPECT_EQ(nodes[0].parent, Trace::kRoot);
    EXPECT_EQ(nodes[1].name, "assign");
    EXPECT_EQ(nodes[1].parent, 0);
    EXPECT_EQ(nodes[2].name, "interference");
    EXPECT_EQ(nodes[2].parent, 1);
    EXPECT_EQ(nodes[3].name, "build");
    EXPECT_EQ(nodes[3].parent, 0);
    EXPECT_EQ(nodes[4].name, "after");
    EXPECT_EQ(nodes[4].parent, Trace::kRoot);

    const double sub = trace.seconds({"flow", "assign", "interference"});
    EXPECT_GE(sub, 0.0015);
    EXPECT_GE(trace.seconds({"flow", "assign"}), sub);
    EXPECT_GE(trace.seconds({"flow"}),
              trace.seconds({"flow", "assign"}) +
                  trace.seconds({"flow", "build"}));
    EXPECT_EQ(trace.seconds({"flow", "interference"}), 0.0);
    EXPECT_EQ(trace.seconds({"missing"}), 0.0);
    EXPECT_EQ(trace.find(0, "build"), 3);
    EXPECT_EQ(trace.find(Trace::kRoot, "build"), -1);
}

TEST(Trace, RepeatedNamesUnderOneParentSum)
{
    Trace trace;
    Trace::Span stage(&trace, "legalize");
    double measured = 0.0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        Trace::Span spiral(&trace, "spiral");
        sleepMs(1);
        measured += spiral.stop();
    }
    stage.stop();

    ASSERT_EQ(trace.nodes().size(), 2u);
    EXPECT_DOUBLE_EQ(trace.seconds({"legalize", "spiral"}), measured);
    EXPECT_GE(measured, 0.0025);
    EXPECT_GE(trace.seconds({"legalize"}), measured);
}

TEST(Trace, StopClosesOnce)
{
    Trace trace;
    Trace::Span span(&trace, "place");
    const double first = span.stop();
    EXPECT_GE(first, 0.0);
    EXPECT_EQ(span.stop(), 0.0);
    EXPECT_EQ(trace.seconds({"place"}), first);
}

TEST(Trace, GraftCopiesTheSubtreeBelowANode)
{
    Trace run;
    {
        Trace::Span flow(&run, "flow");
        Trace::Span stage(&run, "legalize");
        Trace::Span sub(&run, "spiral");
        sleepMs(1);
    }
    Trace::Span other(&run, "other");
    other.stop();

    Trace job;
    {
        Trace::Span flow(&job, "flow");
        Trace::Span stage(&job, "legalize");
    }
    const double before = job.seconds({"flow", "legalize"});
    job.graft(run, run.find(Trace::kRoot, "flow"),
              job.find(Trace::kRoot, "flow"));

    // run's flow node itself and its sibling stay behind; legalize sums
    // into the existing node, spiral is new beneath it.
    ASSERT_EQ(job.nodes().size(), 3u);
    EXPECT_EQ(job.nodes()[2].name, "spiral");
    EXPECT_EQ(job.nodes()[2].parent, 1);
    EXPECT_EQ(job.seconds({"flow", "legalize"}),
              before + run.seconds({"flow", "legalize"}));
    EXPECT_EQ(job.seconds({"flow", "legalize", "spiral"}),
              run.seconds({"flow", "legalize", "spiral"}));

    job.graft(run, -1, Trace::kRoot); // no such node: nothing to add
    EXPECT_EQ(job.nodes().size(), 3u);
}

TEST(Trace, NullTraceSpanIsANoOp)
{
    Trace::Span outer(nullptr, "flow");
    Trace::Span inner(nullptr, "assign");
    sleepMs(1);
    EXPECT_EQ(inner.stop(), 0.0);
    EXPECT_EQ(outer.stop(), 0.0);
}

} // namespace
} // namespace qplacer
