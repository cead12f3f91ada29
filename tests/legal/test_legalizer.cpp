#include <gtest/gtest.h>

#include "core/placer.hpp"
#include "freq/assigner.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

Netlist
placedNetlist(int rows, int cols, bool freq_force = true)
{
    const Topology topo = makeGrid(rows, cols);
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist nl = NetlistBuilder().build(topo, freqs);
    PlacerParams params;
    params.freqForce = freq_force;
    GlobalPlacer(params).place(nl);
    return nl;
}

TEST(Legalizer, ProducesLegalLayout)
{
    Netlist nl = placedNetlist(4, 4);
    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    EXPECT_TRUE(Legalizer::isLegal(nl));
}

TEST(Legalizer, AllInstancesOnCellLattice)
{
    Netlist nl = placedNetlist(3, 3);
    Legalizer().legalize(nl);
    for (const Instance &inst : nl.instances()) {
        const Rect fp = inst.paddedRect();
        const double fx = std::fmod(fp.lo.x - nl.region().lo.x, 100.0);
        const double fy = std::fmod(fp.lo.y - nl.region().lo.y, 100.0);
        EXPECT_NEAR(std::min(fx, 100.0 - fx), 0.0, 1e-6);
        EXPECT_NEAR(std::min(fy, 100.0 - fy), 0.0, 1e-6);
    }
}

TEST(Legalizer, DisplacementIsBounded)
{
    Netlist nl = placedNetlist(3, 3);
    const LegalizeResult result = Legalizer().legalize(nl);
    // Average displacement per instance stays within a few footprints.
    const double avg =
        (result.qubitDisplacementUm + result.segmentDisplacementUm) /
        nl.numInstances();
    EXPECT_LT(avg, 2500.0);
}

TEST(Legalizer, MostResonatorsIntegrated)
{
    Netlist nl = placedNetlist(4, 4);
    const LegalizeResult result = Legalizer().legalize(nl);
    const int total = static_cast<int>(nl.resonators().size());
    EXPECT_LE(result.integration.unintegrated, total / 5);
}

TEST(Legalizer, IsLegalDetectsOverlap)
{
    Netlist nl = placedNetlist(3, 3);
    Legalizer().legalize(nl);
    ASSERT_TRUE(Legalizer::isLegal(nl));
    // Force an overlap.
    nl.instance(1).pos = nl.instance(0).pos;
    EXPECT_FALSE(Legalizer::isLegal(nl));

    // Two 800 um padded qubits overlapping 160 x 160 um, then 20 x 20 um,
    // at a corner: their centres are 905 and 1103 um apart, farther than
    // one padded extent plus the tolerance, so only a box window finds
    // them. 20 um further apart in x and in y they merely touch.
    for (const double shift : {640.0, 780.0, 800.0}) {
        Netlist corner;
        corner.setRegion(Rect(0.0, 0.0, 4000.0, 4000.0));
        for (const Vec2 pos :
             {Vec2(1000.0, 1000.0), Vec2(1000.0 + shift, 1000.0 + shift)}) {
            Instance qubit;
            qubit.width = 400.0;
            qubit.height = 400.0;
            qubit.pad = 400.0;
            qubit.pos = pos;
            corner.addInstance(qubit);
        }
        ASSERT_GT(corner.instance(0).pos.dist(corner.instance(1).pos),
                  800.0 + 1.0);
        EXPECT_EQ(Legalizer::isLegal(corner, 1.0), shift == 800.0) << shift;
    }
}

TEST(Legalizer, IsLegalDetectsOutOfRegion)
{
    Netlist nl = placedNetlist(3, 3);
    Legalizer().legalize(nl);
    nl.instance(0).pos = Vec2(-5000, -5000);
    EXPECT_FALSE(Legalizer::isLegal(nl));
}

TEST(Legalizer, ExpandsRegionWhenTooTight)
{
    const Topology topo = makeGrid(3, 3);
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist nl = NetlistBuilder().build(topo, freqs, 0.95); // very tight
    GlobalPlacer().place(nl);
    const double before = nl.region().area();
    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    EXPECT_GE(nl.region().area(), before); // may have grown
}

TEST(Legalizer, ClassicModeSkipsResonanceChecks)
{
    Netlist nl = placedNetlist(4, 4, /*freq_force=*/false);
    LegalizerParams params;
    params.resonanceCheck = false;
    const LegalizeResult result = Legalizer(params).legalize(nl);
    EXPECT_TRUE(result.legal);
}

} // namespace
} // namespace qplacer
