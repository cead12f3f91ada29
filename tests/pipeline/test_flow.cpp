#include <gtest/gtest.h>

#include "legal/legalizer.hpp"
#include "pipeline/session.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

/** Place the Grid device in @p mode; a failed run fails the test. */
FlowResult
placeGrid(PlacerMode mode, double segment_um = 300.0)
{
    FlowParams params;
    params.mode = mode;
    params.partition.segmentUm = segment_um;
    FlowResult r = PlacementSession().run(makeTopology("Grid"), params);
    EXPECT_TRUE(r.status.ok()) << r.status.message;
    return r;
}

TEST(Flow, QplacerModeProducesLegalConvergedLayout)
{
    const FlowResult r = placeGrid(PlacerMode::Qplacer);
    EXPECT_TRUE(r.place.converged);
    EXPECT_TRUE(r.legal.legal);
    EXPECT_TRUE(Legalizer::isLegal(r.netlist));
    EXPECT_GT(r.area.utilization, 0.5);
    EXPECT_LT(r.area.utilization, 1.0);
}

TEST(Flow, ClassicModeDisablesFrequencyAwareness)
{
    const FlowResult r = placeGrid(PlacerMode::Classic);
    EXPECT_TRUE(r.legal.legal);
    // A frequency-blind layout of a crowded spectrum has hotspots.
    EXPECT_GT(r.hotspots.phPercent, 0.5);
}

TEST(Flow, HumanModeSkipsPlacement)
{
    const FlowResult r = placeGrid(PlacerMode::Human);
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
    const FlowResult coarse = placeGrid(PlacerMode::Qplacer, 400.0);
    const FlowResult fine = placeGrid(PlacerMode::Qplacer, 200.0);
    EXPECT_GT(fine.netlist.numInstances(),
              1.5 * coarse.netlist.numInstances());
}

TEST(Flow, ReportsWallClock)
{
    const FlowResult r = placeGrid(PlacerMode::Qplacer);
    EXPECT_GT(r.seconds(), 0.0);
    EXPECT_LT(r.seconds(), 120.0);
}

} // namespace
} // namespace qplacer
