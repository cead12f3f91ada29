/**
 * @file
 * Property-style sweeps: invariants that must hold for every seed and
 * every device, not just the defaults.
 */

#include <gtest/gtest.h>

#include "legal/legalizer.hpp"
#include "pipeline/session.hpp"
#include "topology/factory.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

/** Place @p topo in @p mode at @p seed; a failed run fails the test. */
FlowResult
place(const Topology &topo, PlacerMode mode, std::uint64_t seed = 1)
{
    FlowParams params;
    params.mode = mode;
    params.placer.seed = seed;
    FlowResult r = PlacementSession().run(topo, params);
    EXPECT_TRUE(r.status.ok()) << r.status.message;
    return r;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, LayoutAlwaysLegalAndBeatsClassic)
{
    const Topology topo = makeGrid(4, 4);
    const FlowResult q = place(topo, PlacerMode::Qplacer, GetParam());
    const FlowResult c = place(topo, PlacerMode::Classic, GetParam());
    EXPECT_TRUE(Legalizer::isLegal(q.netlist));
    EXPECT_TRUE(Legalizer::isLegal(c.netlist));
    // The frequency-aware layout never has more hotspot pairs.
    EXPECT_LE(q.hotspots.pairs.size(), c.hotspots.pairs.size());
    // And stays in a sane utilization band.
    EXPECT_GT(q.area.utilization, 0.4);
    EXPECT_LE(q.area.utilization, 1.0);
}

TEST_P(SeedSweep, EveryInstanceInsideRegion)
{
    const Topology topo = makeGrid(4, 4);
    const FlowResult r = place(topo, PlacerMode::Qplacer, GetParam());
    const Rect region = r.netlist.region().inflated(1.0);
    for (const Instance &inst : r.netlist.instances())
        EXPECT_TRUE(region.containsRect(inst.paddedRect()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(2, 3, 5, 8, 13));

class DeviceSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DeviceSweep, FlowInvariantsHoldOnEveryDevice)
{
    const Topology topo = makeTopology(GetParam());
    const FlowResult r = place(topo, PlacerMode::Qplacer);
    // Legal layout.
    EXPECT_TRUE(Legalizer::isLegal(r.netlist)) << GetParam();
    // Every qubit instance corresponds to its topology qubit.
    for (int q = 0; q < topo.numQubits(); ++q)
        EXPECT_EQ(r.netlist.instance(q).qubit, q);
    // Frequencies stayed inside their bands.
    for (const Instance &inst : r.netlist.instances()) {
        if (inst.kind == InstanceKind::Qubit) {
            EXPECT_TRUE(FrequencyBand::qubitBand().contains(inst.freqHz));
        } else {
            EXPECT_TRUE(
                FrequencyBand::resonatorBand().contains(inst.freqHz));
        }
    }
    // The hotspot metric is consistent with its pair list.
    if (r.hotspots.pairs.empty())
        EXPECT_DOUBLE_EQ(r.hotspots.phPercent, 0.0);
    else
        EXPECT_GT(r.hotspots.phPercent, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Devices, DeviceSweep,
                         ::testing::Values("Grid", "Xtree", "Falcon",
                                           "Aspen-11"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

} // namespace
} // namespace qplacer
