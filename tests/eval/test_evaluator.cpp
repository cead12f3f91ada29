#include <gtest/gtest.h>

#include "eval/evaluator.hpp"
#include "circuits/benchmarks.hpp"
#include "pipeline/session.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

class EvaluatorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        topo_ = new Topology(makeTopology("Grid"));
        qplacer_ = new FlowResult(place(PlacerMode::Qplacer));
        classic_ = new FlowResult(place(PlacerMode::Classic));
    }

    /** Place topo_ in @p mode; a failed run fails the suite. */
    static FlowResult
    place(PlacerMode mode)
    {
        FlowParams params;
        params.mode = mode;
        FlowResult r = PlacementSession().run(*topo_, params);
        EXPECT_TRUE(r.status.ok()) << r.status.message;
        return r;
    }

    static void
    TearDownTestSuite()
    {
        delete topo_;
        delete qplacer_;
        delete classic_;
    }

    static Topology *topo_;
    static FlowResult *qplacer_;
    static FlowResult *classic_;
};

Topology *EvaluatorTest::topo_ = nullptr;
FlowResult *EvaluatorTest::qplacer_ = nullptr;
FlowResult *EvaluatorTest::classic_ = nullptr;

TEST_F(EvaluatorTest, FidelityInUnitInterval)
{
    EvaluatorParams params;
    params.numSubsets = 10;
    const Evaluator evaluator(params);
    const BenchmarkResult r =
        evaluator.evaluate(*topo_, qplacer_->netlist, qplacer_->hotspots,
                           makeBenchmark("bv-4"));
    EXPECT_EQ(r.perSubset.size(), 10u);
    for (double f : r.perSubset) {
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
    }
    EXPECT_LE(r.minFidelity, r.meanFidelity);
    EXPECT_GE(r.maxFidelity, r.meanFidelity);
}

TEST_F(EvaluatorTest, QplacerBeatsClassic)
{
    // The paper's headline (Fig. 11): the frequency-aware layout keeps
    // fidelity high while the frequency-blind one collapses.
    EvaluatorParams params;
    params.numSubsets = 20;
    const Evaluator evaluator(params);
    const Circuit bv = makeBenchmark("bv-4");
    const double f_qplacer =
        evaluator
            .evaluate(*topo_, qplacer_->netlist, qplacer_->hotspots, bv)
            .meanFidelity;
    const double f_classic =
        evaluator
            .evaluate(*topo_, classic_->netlist, classic_->hotspots, bv)
            .meanFidelity;
    EXPECT_GT(f_qplacer, 3.0 * f_classic);
}

TEST_F(EvaluatorTest, DeterministicAcrossRuns)
{
    EvaluatorParams params;
    params.numSubsets = 5;
    const Evaluator evaluator(params);
    const Circuit bv = makeBenchmark("bv-4");
    const auto a = evaluator.evaluate(*topo_, qplacer_->netlist,
                                      qplacer_->hotspots, bv);
    const auto b = evaluator.evaluate(*topo_, qplacer_->netlist,
                                      qplacer_->hotspots, bv);
    EXPECT_EQ(a.perSubset, b.perSubset);
}

TEST_F(EvaluatorTest, BenchmarkLargerThanDeviceIsFatal)
{
    const Evaluator evaluator;
    Circuit huge(26, "huge");
    huge.add2q(GateKind::CX, 0, 1);
    EXPECT_THROW(evaluator.evaluate(*topo_, qplacer_->netlist,
                                    qplacer_->hotspots, huge),
                 std::runtime_error);
}

TEST_F(EvaluatorTest, FidelityProxyFollowsTheRuleTolerance)
{
    // The Qplacer layout keeps resonant pairs 50 um apart, not 150 um:
    // widening the rule's adjacency must add hotspot pairs, and the
    // fidelity proxy must price them.
    const Netlist &layout = qplacer_->netlist;
    CrosstalkRule wide;
    wide.adjacencyTolUm = 150.0;
    const HotspotReport hotspots_50 = analyzeHotspots(layout);
    const HotspotReport hotspots_150 = analyzeHotspots(layout, wide);
    EXPECT_GT(hotspots_150.pairs.size(), hotspots_50.pairs.size());

    EvaluatorParams params;
    params.numSubsets = 10;
    const Evaluator evaluator(params);
    const Circuit bv = makeBenchmark("bv-9");
    const double f_50 =
        evaluator.evaluate(*topo_, layout, hotspots_50, bv).meanFidelity;
    const double f_150 =
        evaluator.evaluate(*topo_, layout, hotspots_150, bv).meanFidelity;
    EXPECT_LT(f_150, f_50);
}

TEST_F(EvaluatorTest, SwapsReportedForSparseTopologies)
{
    EvaluatorParams params;
    params.numSubsets = 10;
    const Evaluator evaluator(params);
    const BenchmarkResult r =
        evaluator.evaluate(*topo_, qplacer_->netlist, qplacer_->hotspots,
                           makeBenchmark("bv-9"));
    EXPECT_GE(r.meanSwaps, 0);
}

} // namespace
} // namespace qplacer
