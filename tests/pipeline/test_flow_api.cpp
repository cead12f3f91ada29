/**
 * @file
 * Staged-flow API contract: observer event ordering (the cold, Human
 * and incremental stage lists), cooperative cancellation
 * mid-placement, FlowParams::normalized() Classic-mode handling and
 * validation, and the structured FlowStatus error paths.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pipeline/context.hpp"
#include "pipeline/session.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

FlowParams
quickParams(int max_iters = 120)
{
    FlowParams params;
    params.placer.maxIters = max_iters;
    params.placer.threads = 1;
    return params;
}

/** The stage spans under the trace's flow root, in run order. */
std::vector<Trace::Node>
stageSpans(const FlowResult &r)
{
    std::vector<Trace::Node> out;
    const int flow = r.trace.find(Trace::kRoot, kFlowSpan);
    for (const Trace::Node &node : r.trace.nodes())
        if (flow >= 0 && node.parent == flow)
            out.push_back(node);
    return out;
}

/** Records every event; optionally cancels at a given iteration. */
class RecordingObserver : public FlowObserver
{
  public:
    void onStageBegin(const FlowContext &, const std::string &stage) override
    {
        events.push_back("begin:" + stage);
    }

    void onStageEnd(const FlowContext &, const std::string &stage,
                    double seconds) override
    {
        events.push_back("end:" + stage);
        EXPECT_GE(seconds, 0.0);
    }

    void onIteration(const FlowContext &ctx,
                     const PlaceProgress &progress) override
    {
        iterations.push_back(progress.iteration);
        lastOverflow = progress.overflow;
        if (cancelAtIteration >= 0 &&
            progress.iteration >= cancelAtIteration && cancelTarget)
            cancelTarget->cancel();
        (void)ctx;
    }

    std::vector<std::string> events;
    std::vector<int> iterations;
    double lastOverflow = -1.0;
    int cancelAtIteration = -1;
    CancelToken *cancelTarget = nullptr;
};

TEST(FlowApi, ObserverSeesStagesInOrderWithIterationsInsidePlace)
{
    PlacementSession session;
    RecordingObserver observer;
    session.setObserver(&observer);

    const FlowResult r = session.run(makeGrid(3, 3), quickParams());
    ASSERT_TRUE(r.status.ok()) << r.status.message;

    const std::vector<std::string> expected = {
        "begin:assign",   "end:assign",   "begin:build",
        "end:build",      "begin:place",  "end:place",
        "begin:legalize", "end:legalize", "begin:metrics",
        "end:metrics",
    };
    EXPECT_EQ(observer.events, expected);

    // One progress event per Nesterov iteration, 0-based and strictly
    // increasing.
    ASSERT_EQ(observer.iterations.size(),
              static_cast<std::size_t>(r.place.iterations));
    for (std::size_t i = 0; i < observer.iterations.size(); ++i)
        EXPECT_EQ(observer.iterations[i], static_cast<int>(i));
    EXPECT_EQ(observer.lastOverflow, r.place.finalOverflow);

    // The result's stage spans mirror the event stream.
    const std::vector<Trace::Node> stages = stageSpans(r);
    ASSERT_EQ(stages.size(), 5u);
    EXPECT_EQ(stages[0].name, "assign");
    EXPECT_EQ(stages[2].name, "place");
    EXPECT_EQ(stages[4].name, "metrics");
    double staged = 0.0;
    for (const Trace::Node &stage : stages)
        staged += stage.seconds;
    EXPECT_LE(staged, r.seconds());
}

TEST(FlowApi, EarlyStopCountsTheEvaluationThatStoppedIt)
{
    // The 3x3 run above ends on its iteration budget. These stop early,
    // on the overflow target and on the plateau rule (an unreachable
    // target); the evaluation that stops the run is counted too.
    FlowParams converges = quickParams(2000);
    FlowParams plateaus = quickParams(2000);
    plateaus.placer.stopOverflow = 0.0;
    for (const FlowParams &params : {converges, plateaus}) {
        const bool target = params.placer.stopOverflow > 0.0;
        SCOPED_TRACE(target ? "overflow target" : "plateau");
        PlacementSession session;
        RecordingObserver observer;
        session.setObserver(&observer);
        const FlowResult r = session.run(makeGrid(3, 3), params);
        ASSERT_TRUE(r.status.ok()) << r.status.message;

        EXPECT_EQ(r.place.converged, target);
        EXPECT_LT(r.place.iterations, params.placer.maxIters);
        EXPECT_EQ(observer.iterations.size(),
                  static_cast<std::size_t>(r.place.iterations));
        EXPECT_EQ(observer.lastOverflow, r.place.finalOverflow);
    }
}

TEST(FlowApi, HumanModeRunsManualLayoutStage)
{
    PlacementSession session;
    RecordingObserver observer;
    session.setObserver(&observer);

    FlowParams params = quickParams();
    params.mode = PlacerMode::Human;
    const FlowResult r = session.run(makeGrid(3, 3), params);
    ASSERT_TRUE(r.status.ok());

    const std::vector<std::string> expected = {
        "begin:assign",      "end:assign",      "begin:human_place",
        "end:human_place",   "begin:metrics",   "end:metrics",
    };
    EXPECT_EQ(observer.events, expected);
    EXPECT_TRUE(observer.iterations.empty());
}

TEST(FlowApi, IncrementalStageListIsPinned)
{
    // perfbench's daemon_edit workload reads the warm_start span; an
    // empty delta short-circuits inside the stages, not by skipping
    // them, so both runs show the same list.
    const Topology topo = makeGrid(3, 3);
    const FlowParams params = quickParams();
    PlacementSession session;
    const FlowResult cold = session.run(topo, params);
    ASSERT_TRUE(cold.status.ok()) << cold.status.message;
    const PriorLayout prior = PriorLayout::capture(cold.netlist);

    const std::vector<std::string> names = {
        "assign", "build", "warm_start", "place", "legalize", "metrics"};
    NetlistDelta edit;
    edit.dirtyQubits = {4};
    for (const NetlistDelta &delta : {edit, NetlistDelta{}}) {
        SCOPED_TRACE(delta.empty() ? "empty delta" : "one dirty qubit");
        RecordingObserver observer;
        session.setObserver(&observer);
        const FlowResult r =
            session.runIncremental(topo, params, prior, delta);
        session.setObserver(nullptr);
        ASSERT_TRUE(r.status.ok()) << r.status.message;
        EXPECT_EQ(r.incremental.reusedPrior, delta.empty());

        std::vector<std::string> begun;
        for (const std::string &event : observer.events)
            if (event.rfind("begin:", 0) == 0)
                begun.push_back(event.substr(6));
        EXPECT_EQ(begun, names);

        std::vector<std::string> spans;
        for (const Trace::Node &stage : stageSpans(r))
            spans.push_back(stage.name);
        EXPECT_EQ(spans, names);
    }
}

TEST(FlowApi, CancellationMidPlacementStopsTheFlow)
{
    PlacementSession session;
    RecordingObserver observer;
    observer.cancelAtIteration = 5;
    observer.cancelTarget = &session.cancelToken();
    session.setObserver(&observer);

    const FlowResult r = session.run(makeGrid(4, 4), quickParams(400));

    EXPECT_EQ(r.status.code, FlowCode::Cancelled);
    EXPECT_EQ(r.status.stage, "place");
    EXPECT_TRUE(r.place.cancelled);
    // The placer polls at the top of each iteration: one more evaluate
    // after the cancelling callback, then it stops.
    EXPECT_LE(r.place.iterations, 7);
    EXPECT_GE(observer.iterations.size(), 5u);

    // Legalization and metrics never ran.
    for (const std::string &event : observer.events) {
        EXPECT_NE(event, "begin:legalize");
        EXPECT_NE(event, "begin:metrics");
    }
    // The aborted stage still reports a timing (and fired its end
    // event) so dashboards account for the spent time.
    const std::vector<Trace::Node> stages = stageSpans(r);
    ASSERT_FALSE(stages.empty());
    EXPECT_EQ(stages.back().name, "place");

    // A cancelled session stays cancelled until reset, then works.
    const FlowResult still = session.run(makeGrid(3, 3), quickParams());
    EXPECT_EQ(still.status.code, FlowCode::Cancelled);
    session.cancelToken().reset();
    observer.cancelAtIteration = -1;
    const FlowResult again = session.run(makeGrid(3, 3), quickParams());
    EXPECT_TRUE(again.status.ok());
}

TEST(FlowApi, CancelBeforeRunReportsCancelledWithoutRunning)
{
    PlacementSession session;
    session.cancelToken().cancel();
    const FlowResult r = session.run(makeGrid(3, 3), quickParams());
    EXPECT_EQ(r.status.code, FlowCode::Cancelled);
    EXPECT_EQ(r.status.stage, "assign");
    EXPECT_TRUE(stageSpans(r).empty());
    EXPECT_EQ(r.netlist.numInstances(), 0);
}

TEST(FlowApi, InvalidParamsAreStructuredErrorsInSessions)
{
    FlowParams params = quickParams();
    params.targetUtil = 1.5;

    PlacementSession session;
    const FlowResult r = session.run(makeGrid(3, 3), params);
    EXPECT_EQ(r.status.code, FlowCode::InvalidParams);
    EXPECT_NE(r.status.message.find("targetUtil"), std::string::npos);
    EXPECT_EQ(r.netlist.numInstances(), 0);
    EXPECT_TRUE(r.trace.nodes().empty());

    // The portfolio path run() dispatches to reports the same way.
    params.portfolio.seeds = 3;
    const FlowResult p = session.run(makeGrid(3, 3), params);
    EXPECT_EQ(p.status.code, FlowCode::InvalidParams);
    EXPECT_NE(p.status.message.find("targetUtil"), std::string::npos);
    EXPECT_FALSE(p.portfolioStats.portfolio);
}

TEST(FlowApi, HumanModePortfolioIsInvalidParams)
{
    FlowParams params = quickParams();
    params.mode = PlacerMode::Human;
    params.portfolio.seeds = 3;
    std::string error;
    params.normalized(error);
    EXPECT_NE(error.find("portfolio.seeds"), std::string::npos);

    PlacementSession session;
    const FlowResult r = session.run(makeGrid(3, 3), params);
    EXPECT_EQ(r.status.code, FlowCode::InvalidParams);
    EXPECT_FALSE(r.portfolioStats.portfolio);
    EXPECT_TRUE(r.trace.nodes().empty());

    // One seed is the plain Human flow.
    params.portfolio.seeds = 1;
    EXPECT_TRUE(session.run(makeGrid(3, 3), params).status.ok());
}

TEST(FlowApi, InvalidJobDoesNotPoisonTheBatch)
{
    const Topology topo = makeGrid(3, 3);
    PlacementSession session(/*workers=*/2);

    std::vector<FlowParams> jobs(3, quickParams());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        jobs[j].placer.seed = j + 1;
    jobs[1].placer.stopOverflow = -1.0; // Invalid.

    const std::vector<FlowResult> results = session.runBatch(topo, jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].status.ok());
    EXPECT_EQ(results[1].status.code, FlowCode::InvalidParams);
    EXPECT_NE(results[1].status.message.find("stopOverflow"),
              std::string::npos);
    EXPECT_TRUE(results[2].status.ok());
    EXPECT_TRUE(results[0].legal.legal);
    EXPECT_TRUE(results[2].legal.legal);
}

TEST(FlowApi, BatchAndIncrementalPortfolioIsInvalidParams)
{
    // Only run() races seeds; a batch or incremental job that asks for
    // a portfolio is rejected, not placed from its base seed alone.
    const Topology topo = makeGrid(3, 3);
    PlacementSession session(/*workers=*/2);
    std::vector<FlowParams> jobs(3, quickParams());
    jobs[1].portfolio.seeds = 3;
    const std::vector<FlowResult> results = session.runBatch(topo, jobs);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].status.ok());
    EXPECT_EQ(results[1].status.code, FlowCode::InvalidParams);
    EXPECT_NE(results[1].status.message.find("portfolio.seeds"),
              std::string::npos);
    EXPECT_FALSE(results[1].portfolioStats.portfolio);
    EXPECT_TRUE(results[1].trace.nodes().empty());
    EXPECT_TRUE(results[2].status.ok());

    // A serial batch, on one worker, says the same.
    PlacementSession serial(/*workers=*/1);
    const std::vector<FlowResult> one = serial.runBatch(topo, {jobs[1]});
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].status.code, FlowCode::InvalidParams);

    const FlowResult cold = session.run(topo, jobs[0]);
    ASSERT_TRUE(cold.status.ok());
    const FlowResult warm = session.runIncremental(
        topo, jobs[1], PriorLayout::capture(cold.netlist));
    EXPECT_EQ(warm.status.code, FlowCode::InvalidParams);
    EXPECT_NE(warm.status.message.find("portfolio.seeds"),
              std::string::npos);
}

TEST(FlowApi, NormalizedClassicDisablesFrequencyAwareness)
{
    FlowParams params;
    std::string error;
    FlowParams n = params.normalized(error);
    EXPECT_TRUE(n.placer.freqForce);
    EXPECT_TRUE(n.legalizer.resonanceCheck);

    params.mode = PlacerMode::Classic;
    n = params.normalized(error);
    EXPECT_EQ(error, "");
    EXPECT_FALSE(n.placer.freqForce);
    EXPECT_FALSE(n.legalizer.resonanceCheck);
}

TEST(FlowApi, BadForceKnobsAreInvalidParamsNotStageErrors)
{
    // A bad frequency-force knob must be rejected before the run, not
    // surface from the place stage.
    PlacementSession session;
    FlowParams params = quickParams();
    params.placer.freqWeight = -1.0;
    const FlowResult r = session.run(makeGrid(3, 3), params);
    EXPECT_EQ(r.status.code, FlowCode::InvalidParams);
    EXPECT_NE(r.status.message.find("freqWeight"), std::string::npos);
    EXPECT_TRUE(r.trace.nodes().empty());
}

TEST(FlowApi, NormalizedValidatesRanges)
{
    const auto firstError = [](FlowParams params) {
        std::string error;
        params.normalized(error);
        return error;
    };

    FlowParams p;
    EXPECT_EQ(firstError(p), "");

    p = FlowParams{};
    p.targetUtil = 0.0;
    EXPECT_NE(firstError(p).find("targetUtil"), std::string::npos);

    p = FlowParams{};
    p.partition.segmentUm = -300.0;
    EXPECT_NE(firstError(p).find("segmentUm"), std::string::npos);

    // A budget below the minIters floor is a clamp, not an error:
    // quick runs lower only maxIters.
    p = FlowParams{};
    p.placer.maxIters = 10;
    std::string error;
    EXPECT_EQ(p.normalized(error).placer.minIters, 10);
    EXPECT_EQ(error, "");

    p = FlowParams{};
    p.placer.minIters = -1;
    EXPECT_NE(firstError(p).find("minIters"), std::string::npos);

    p = FlowParams{};
    p.crosstalk.detuningThresholdHz = 0.0;
    EXPECT_NE(firstError(p).find("detuningThresholdHz"),
              std::string::npos);

    p = FlowParams{};
    p.crosstalk.adjacencyTolUm = -1.0;
    EXPECT_NE(firstError(p).find("adjacencyTolUm"), std::string::npos);

    p = FlowParams{};
    p.placer.freqWeight = -0.5;
    EXPECT_NE(firstError(p).find("freqWeight"), std::string::npos);

    // Only the first violation is reported, and a valid copy clears
    // a stale message.
    p = FlowParams{};
    p.targetUtil = -1.0;
    p.placer.freqWeight = -0.5;
    EXPECT_EQ(firstError(p), "FlowParams: targetUtil must be in (0, 1]");
    error = "stale";
    FlowParams{}.normalized(error);
    EXPECT_EQ(error, "");
}

TEST(FlowApi, FlowCodeNamesAreStable)
{
    EXPECT_STREQ(flowCodeName(FlowCode::Ok), "ok");
    EXPECT_STREQ(flowCodeName(FlowCode::InvalidParams), "invalid_params");
    EXPECT_STREQ(flowCodeName(FlowCode::Cancelled), "cancelled");
    EXPECT_STREQ(flowCodeName(FlowCode::StageError), "stage_error");
}

} // namespace
} // namespace qplacer
