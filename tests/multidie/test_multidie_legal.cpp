/**
 * @file
 * Per-die legalization: OccupancyGrid::block() keep-out semantics, and
 * the end-to-end property that no placed footprint ever straddles a
 * cut -- every instance lands wholly inside exactly one die.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "eval/crosscut.hpp"
#include "legal/legalizer.hpp"
#include "legal/occupancy.hpp"
#include "multidie/die_plan.hpp"
#include "pipeline/session.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

// ---------------------------------------------------------------------
// OccupancyGrid::block()

TEST(OccupancyBlock, BlockedCellsRejectPlacement)
{
    OccupancyGrid grid(Rect(0.0, 0.0, 1000.0, 1000.0), 100.0);
    const Rect band(400.0, 0.0, 600.0, 1000.0);
    grid.block(band);

    // Fully inside the band, partially overlapping, and clear of it.
    EXPECT_FALSE(grid.canPlace(Rect(400.0, 400.0, 600.0, 600.0)));
    EXPECT_FALSE(grid.canPlace(Rect(300.0, 0.0, 500.0, 200.0)));
    EXPECT_TRUE(grid.canPlace(Rect(0.0, 0.0, 400.0, 400.0)));
    EXPECT_TRUE(grid.canPlace(Rect(600.0, 600.0, 1000.0, 1000.0)));
}

TEST(OccupancyBlock, NoIgnoreIdFreesBlockedCells)
{
    OccupancyGrid grid(Rect(0.0, 0.0, 1000.0, 1000.0), 100.0);
    grid.block(Rect(400.0, 0.0, 600.0, 1000.0));
    const Rect probe(400.0, 100.0, 600.0, 300.0);
    EXPECT_FALSE(grid.canPlaceIgnoring(probe, 0));
    EXPECT_FALSE(grid.canPlaceIgnoring(probe, 7));
}

TEST(OccupancyBlock, OccupyIntoBlockedCellsPanics)
{
    OccupancyGrid grid(Rect(0.0, 0.0, 1000.0, 1000.0), 100.0);
    grid.block(Rect(400.0, 0.0, 600.0, 1000.0));
    EXPECT_THROW(grid.occupy(Rect(300.0, 0.0, 500.0, 200.0), 3),
                 std::logic_error);
}

TEST(OccupancyBlock, BlockOverOwnedCellsPanics)
{
    OccupancyGrid grid(Rect(0.0, 0.0, 1000.0, 1000.0), 100.0);
    grid.occupy(Rect(400.0, 400.0, 600.0, 600.0), 5);
    EXPECT_THROW(grid.block(Rect(300.0, 300.0, 700.0, 700.0)),
                 std::logic_error);
}

TEST(OccupancyBlock, OwnersInExcludesBlockedCells)
{
    OccupancyGrid grid(Rect(0.0, 0.0, 1000.0, 1000.0), 100.0);
    grid.block(Rect(400.0, 0.0, 600.0, 1000.0));
    grid.occupy(Rect(100.0, 100.0, 300.0, 300.0), 9);

    const Rect everything(0.0, 0.0, 1000.0, 1000.0);
    const std::vector<std::int32_t> scan = grid.ownersIn(everything);
    ASSERT_EQ(scan.size(), 1u);
    EXPECT_EQ(scan[0], 9);

    std::vector<std::int32_t> sorted;
    grid.ownersIn(everything, sorted);
    ASSERT_EQ(sorted.size(), 1u);
    EXPECT_EQ(sorted[0], 9);
}

TEST(OccupancyBlock, OutOfGridPartsAreClipped)
{
    OccupancyGrid grid(Rect(0.0, 0.0, 1000.0, 1000.0), 100.0);
    grid.block(Rect(-500.0, 800.0, 200.0, 1500.0));
    EXPECT_FALSE(grid.canPlace(Rect(0.0, 800.0, 200.0, 1000.0)));
    EXPECT_TRUE(grid.canPlace(Rect(200.0, 0.0, 600.0, 600.0)));
}

// ---------------------------------------------------------------------
// End-to-end: no footprint straddles a cut.

FlowResult
runFlow(const std::string &spec, bool detailed = false)
{
    Topology topo;
    std::string error;
    if (!resolveTopologySpec(spec, topo, &error))
        ADD_FAILURE() << spec << ": " << error;

    FlowParams params;
    params.mode = PlacerMode::Qplacer;
    params.partition.segmentUm = 300.0;
    params.placer.seed = 1;
    params.placer.threads = 1;
    if (detailed)
        params.detailed.iters = 20;
    return PlacementSession().run(topo, params);
}

void
expectPartitioned(const FlowResult &r, const std::string &label)
{
    ASSERT_TRUE(r.status.ok()) << label << ": " << r.status.message;
    EXPECT_TRUE(r.legal.legal) << label;
    EXPECT_TRUE(Legalizer::isLegal(r.netlist)) << label;

    const Netlist &netlist = r.netlist;
    ASSERT_TRUE(netlist.dieSpec().active()) << label;
    const DiePlan plan =
        DiePlan::resolve(netlist.dieSpec(), netlist.region());
    const std::vector<Rect> bands = plan.gapBands();

    for (const Instance &inst : netlist.instances()) {
        const Rect fp = inst.paddedRect();
        int homes = 0;
        for (const Rect &die : plan.dies)
            if (die.inflated(1e-6).containsRect(fp))
                ++homes;
        EXPECT_EQ(homes, 1)
            << label << ": instance " << inst.id << " at (" << inst.pos.x
            << ", " << inst.pos.y << ") is inside " << homes << " dies";
        for (const Rect &band : bands)
            EXPECT_FALSE(band.inflated(-1e-6).overlaps(fp))
                << label << ": instance " << inst.id
                << " straddles a cut gap";
    }

    // The report's per-die census covers every instance exactly once.
    ASSERT_TRUE(r.multidie.active) << label;
    EXPECT_EQ(r.multidie.dies, plan.spec.numDies()) << label;
    ASSERT_EQ(r.multidie.dieInstances.size(), plan.dies.size()) << label;
    int census = 0;
    for (int count : r.multidie.dieInstances)
        census += count;
    EXPECT_EQ(census, netlist.numInstances()) << label;
}

TEST(MultidieLegal, TwoDieFlowKeepsFootprintsOffTheCut)
{
    expectPartitioned(runFlow("grid6x6@dies=2x1"), "grid6x6@dies=2x1");
}

TEST(MultidieLegal, FourDieFlowKeepsFootprintsOffTheCuts)
{
    expectPartitioned(runFlow("grid6x6@dies=2x2"), "grid6x6@dies=2x2");
}

TEST(MultidieLegal, AnnealStageRespectsDies)
{
    expectPartitioned(runFlow("grid6x6@dies=2x1", /*detailed=*/true),
                      "grid6x6@dies=2x1+anneal");
}

TEST(MultidieLegal, CrossCutMetricsMatchManualCount)
{
    const FlowResult r = runFlow("grid6x6@dies=2x1");
    ASSERT_TRUE(r.status.ok());
    const DiePlan plan =
        DiePlan::resolve(r.netlist.dieSpec(), r.netlist.region());
    const CrossCutMetrics metrics = computeCrossCut(r.netlist, plan);

    // Recount crossings straight off the resonator records.
    int crossings = 0;
    for (const Resonator &res : r.netlist.resonators()) {
        const Instance &qa =
            r.netlist.instance(r.netlist.qubitInstance(res.qubitA));
        const Instance &qb =
            r.netlist.instance(r.netlist.qubitInstance(res.qubitB));
        if (plan.dieAt(qa.pos) != plan.dieAt(qb.pos))
            ++crossings;
    }
    EXPECT_EQ(metrics.crossingCouplers, crossings);
    EXPECT_GE(metrics.crossingWirelengthUm, 0.0);
}

} // namespace
} // namespace qplacer
