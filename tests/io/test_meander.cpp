#include <gtest/gtest.h>

#include "freq/assigner.hpp"
#include "io/meander.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "pipeline/session.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

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
