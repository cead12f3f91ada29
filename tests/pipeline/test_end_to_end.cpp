/**
 * @file
 * End-to-end invariants: the paper's headline comparisons must hold on
 * at least a small device (Fig. 11-13 shapes).
 */

#include <gtest/gtest.h>

#include "circuits/benchmarks.hpp"
#include "eval/evaluator.hpp"
#include "pipeline/flow.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

class EndToEnd : public ::testing::Test
{
  protected:
    static FlowResult
    runMode(PlacerMode mode)
    {
        FlowParams params;
        params.mode = mode;
        // Pinned to one thread like the goldens: auto thread counts
        // tie the layout, and with it these orderings, to the host's
        // core count.
        params.placer.threads = 1;
        return QplacerFlow(params).run(*topo_);
    }

    static void
    SetUpTestSuite()
    {
        topo_ = new Topology(makeTopology("Falcon"));
        qplacer_ = new FlowResult(runMode(PlacerMode::Qplacer));
        classic_ = new FlowResult(runMode(PlacerMode::Classic));
        human_ = new FlowResult(runMode(PlacerMode::Human));
    }

    static void
    TearDownTestSuite()
    {
        delete topo_;
        delete qplacer_;
        delete classic_;
        delete human_;
    }

    static Topology *topo_;
    static FlowResult *qplacer_;
    static FlowResult *classic_;
    static FlowResult *human_;
};

Topology *EndToEnd::topo_ = nullptr;
FlowResult *EndToEnd::qplacer_ = nullptr;
FlowResult *EndToEnd::classic_ = nullptr;
FlowResult *EndToEnd::human_ = nullptr;

TEST_F(EndToEnd, HotspotProportionOrdering)
{
    // Fig. 12: Ph(Qplacer) << Ph(Classic); Human is hotspot-free.
    EXPECT_LT(qplacer_->hotspots.phPercent,
              0.2 * classic_->hotspots.phPercent);
    EXPECT_DOUBLE_EQ(human_->hotspots.phPercent, 0.0);
}

TEST_F(EndToEnd, ImpactedQubitOrdering)
{
    EXPECT_LT(qplacer_->hotspots.impactedQubits.size(),
              classic_->hotspots.impactedQubits.size());
    EXPECT_EQ(human_->hotspots.impactedQubits.size(), 0u);
}

TEST_F(EndToEnd, AreaOrdering)
{
    // Fig. 13: Classic ~ Qplacer in area; Human is much larger.
    EXPECT_GT(human_->area.amerUm2, 1.5 * qplacer_->area.amerUm2);
    EXPECT_LT(classic_->area.amerUm2, 1.3 * qplacer_->area.amerUm2);
    EXPECT_GT(classic_->area.amerUm2, 0.7 * qplacer_->area.amerUm2);
}

TEST_F(EndToEnd, FidelityOrdering)
{
    // Fig. 11: the frequency-aware layout wins by a large factor.
    EvaluatorParams params;
    params.numSubsets = 15;
    const Evaluator evaluator(params);
    const Circuit bv = makeBenchmark("bv-4");
    const double f_qplacer =
        evaluator.evaluate(*topo_, qplacer_->netlist, bv).meanFidelity;
    const double f_classic =
        evaluator.evaluate(*topo_, classic_->netlist, bv).meanFidelity;
    const double f_human =
        evaluator.evaluate(*topo_, human_->netlist, bv).meanFidelity;
    EXPECT_GT(f_qplacer, 5.0 * f_classic);
    // Human is crosstalk-free so Qplacer can at best match it.
    EXPECT_LE(f_qplacer, f_human + 0.05);
    EXPECT_GT(f_qplacer, 0.3);
}

TEST_F(EndToEnd, QplacerKeepsResonatorsIntegrated)
{
    const int total = static_cast<int>(qplacer_->netlist.resonators().size());
    EXPECT_LT(qplacer_->legal.integration.unintegrated, total / 4);
}

TEST_F(EndToEnd, SameMappingsSeenByAllPlacers)
{
    // Subset sampling must not depend on the layout (Section VI-A).
    EvaluatorParams params;
    params.numSubsets = 5;
    const Evaluator evaluator(params);
    const Circuit bv = makeBenchmark("bv-4");
    const auto a = evaluator.evaluate(*topo_, qplacer_->netlist, bv);
    const auto b = evaluator.evaluate(*topo_, classic_->netlist, bv);
    EXPECT_EQ(a.meanSwaps, b.meanSwaps);
}

} // namespace
} // namespace qplacer
