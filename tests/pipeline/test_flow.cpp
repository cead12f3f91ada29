#include <gtest/gtest.h>

#include "legal/legalizer.hpp"
#include "pipeline/flow.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

TEST(Flow, QplacerModeProducesLegalConvergedLayout)
{
    const Topology topo = makeTopology("Grid");
    const FlowResult r = QplacerFlow::runMode(topo, PlacerMode::Qplacer);
    EXPECT_TRUE(r.place.converged);
    EXPECT_TRUE(r.legal.legal);
    EXPECT_TRUE(Legalizer::isLegal(r.netlist));
    EXPECT_GT(r.area.utilization, 0.5);
    EXPECT_LT(r.area.utilization, 1.0);
}

TEST(Flow, ClassicModeDisablesFrequencyAwareness)
{
    FlowParams params;
    params.mode = PlacerMode::Classic;
    const QplacerFlow flow(params);
    const Topology topo = makeTopology("Grid");
    const FlowResult r = flow.run(topo);
    EXPECT_TRUE(r.legal.legal);
    // A frequency-blind layout of a crowded spectrum has hotspots.
    EXPECT_GT(r.hotspots.phPercent, 0.5);
}

TEST(Flow, HumanModeSkipsPlacement)
{
    const Topology topo = makeTopology("Grid");
    const FlowResult r = QplacerFlow::runMode(topo, PlacerMode::Human);
    EXPECT_EQ(r.place.iterations, 0);
    EXPECT_EQ(r.hotspots.pairs.size(), 0u);
}

TEST(Flow, ModeNames)
{
    EXPECT_STREQ(placerModeName(PlacerMode::Qplacer), "Qplacer");
    EXPECT_STREQ(placerModeName(PlacerMode::Classic), "Classic");
    EXPECT_STREQ(placerModeName(PlacerMode::Human), "Human");
}

TEST(Flow, SegmentSizeChangesCellCount)
{
    const Topology topo = makeTopology("Grid");
    const FlowResult coarse =
        QplacerFlow::runMode(topo, PlacerMode::Qplacer, 400.0);
    const FlowResult fine =
        QplacerFlow::runMode(topo, PlacerMode::Qplacer, 200.0);
    EXPECT_GT(fine.netlist.numInstances(),
              1.5 * coarse.netlist.numInstances());
}

TEST(Flow, ReportsWallClock)
{
    const Topology topo = makeTopology("Grid");
    const FlowResult r = QplacerFlow::runMode(topo, PlacerMode::Qplacer);
    EXPECT_GT(r.seconds(), 0.0);
    EXPECT_LT(r.seconds(), 120.0);
}

} // namespace
} // namespace qplacer
