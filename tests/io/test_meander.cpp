/**
 * @file
 * Physical meander routing (Fig. 8-e), kept as a check on the
 * partitioning arithmetic: after legalization, a resonator wire routed
 * through its reserved segment blocks as a serpentine at d_r pitch must
 * reach its half-wave length. Each l_b x l_b block holds
 * l_b^2 / wire_width of wire, so the block count from the partitioning
 * step guarantees the fit. (The SVG writer draws its own polylines.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "freq/assigner.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "pipeline/session.hpp"
#include "topology/generators.hpp"
#include "util/logging.hpp"

namespace qplacer {
namespace {

/** A routed resonator wire. */
struct MeanderPath
{
    std::vector<Vec2> points; ///< Polyline vertices (um).
    double lengthUm = 0.0;    ///< Total polyline length.
    double targetUm = 0.0;    ///< The resonator's required wire length.

    /** The serpentine provides at least the target length. */
    bool fits() const { return lengthUm >= targetUm; }
};

double
pathLength(const std::vector<Vec2> &points)
{
    double acc = 0.0;
    for (std::size_t i = 1; i < points.size(); ++i)
        acc += points[i].dist(points[i - 1]);
    return acc;
}

/**
 * Route resonator @p resonator_id of @p netlist: serpentine passes at
 * @p pitch_um inside each segment block (in chain order), joined by
 * straight jumpers, ending at the two endpoint qubits.
 */
MeanderPath
routeMeander(const Netlist &netlist, int resonator_id,
             double pitch_um = 100.0)
{
    if (pitch_um <= 0.0)
        fatal("routeMeander: non-positive pitch");
    const Resonator &res = netlist.resonator(resonator_id);

    MeanderPath path;
    path.targetUm = res.lengthUm;
    path.points.push_back(netlist.instance(res.qubitA).pos);

    for (int seg_id : res.segments) {
        const Rect block = netlist.instance(seg_id).rect();

        // Horizontal passes bottom-to-top at d_r pitch, entered on the
        // side closest to the previous point so the jumper stays short.
        const int passes = std::max(
            1, static_cast<int>(std::floor(block.height() / pitch_um)));
        const double dy = passes > 1 ? block.height() / passes : 0.0;
        const bool enter_left = path.points.back().x <= block.center().x;

        for (int p = 0; p < passes; ++p) {
            const double y = block.lo.y + pitch_um / 2.0 + p * dy;
            const bool left_first = enter_left == (p % 2 == 0);
            path.points.emplace_back(left_first ? block.lo.x : block.hi.x,
                                     y);
            path.points.emplace_back(left_first ? block.hi.x : block.lo.x,
                                     y);
        }
    }

    path.points.push_back(netlist.instance(res.qubitB).pos);
    path.lengthUm = pathLength(path.points);
    return path;
}

TEST(Meander, PathLengthHelper)
{
    EXPECT_DOUBLE_EQ(pathLength({}), 0.0);
    EXPECT_DOUBLE_EQ(pathLength({{0, 0}}), 0.0);
    EXPECT_DOUBLE_EQ(pathLength({{0, 0}, {3, 4}, {3, 14}}), 15.0);
}

class MeanderOnLayout : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        flow_ = new FlowResult(PlacementSession().run(makeGrid(3, 3), {}));
        EXPECT_TRUE(flow_->status.ok()) << flow_->status.message;
    }

    static void TearDownTestSuite() { delete flow_; }

    static FlowResult *flow_;
};

FlowResult *MeanderOnLayout::flow_ = nullptr;

TEST_F(MeanderOnLayout, EveryResonatorWireFits)
{
    // The partitioning arithmetic guarantees each chain reserves at
    // least the half-wave wire length (Section IV-B2).
    for (const Resonator &res : flow_->netlist.resonators()) {
        const MeanderPath path = routeMeander(flow_->netlist, res.id);
        EXPECT_TRUE(path.fits())
            << "resonator " << res.id << ": " << path.lengthUm
            << " um routed < " << path.targetUm << " um needed";
    }
}

TEST_F(MeanderOnLayout, PathConnectsBothQubits)
{
    const Resonator &res = flow_->netlist.resonators().front();
    const MeanderPath path = routeMeander(flow_->netlist, res.id);
    ASSERT_GE(path.points.size(), 2u);
    EXPECT_EQ(path.points.front(),
              flow_->netlist.instance(res.qubitA).pos);
    EXPECT_EQ(path.points.back(),
              flow_->netlist.instance(res.qubitB).pos);
}

TEST_F(MeanderOnLayout, SerpentineStaysInsideItsBlocks)
{
    const Resonator &res = flow_->netlist.resonators().front();
    const MeanderPath path = routeMeander(flow_->netlist, res.id);
    // Every interior vertex lies inside some block of this resonator
    // (endpoints are the qubit pads).
    for (std::size_t i = 1; i + 1 < path.points.size(); ++i) {
        bool inside = false;
        for (int seg : res.segments) {
            const Rect block =
                flow_->netlist.instance(seg).rect().inflated(1.0);
            if (block.contains(path.points[i])) {
                inside = true;
                break;
            }
        }
        EXPECT_TRUE(inside) << "vertex " << i << " escaped its blocks";
    }
}

TEST_F(MeanderOnLayout, FinerPitchYieldsLongerWire)
{
    const Resonator &res = flow_->netlist.resonators().front();
    const double coarse =
        routeMeander(flow_->netlist, res.id, 150.0).lengthUm;
    const double fine =
        routeMeander(flow_->netlist, res.id, 50.0).lengthUm;
    EXPECT_GT(fine, coarse);
}

TEST(Meander, InvalidPitchIsFatal)
{
    const Topology topo = makeGrid(2, 2);
    const auto freqs = FrequencyAssigner().assign(topo);
    const Netlist nl = NetlistBuilder().build(topo, freqs);
    EXPECT_THROW(routeMeander(nl, 0, 0.0), std::runtime_error);
}

} // namespace
} // namespace qplacer
