#include <gtest/gtest.h>

#include <vector>

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

// --- Scoped pass: legalize() with a movable set. ---

/** A cold-legalized grid, the starting point of every scoped run. */
Netlist
legalNetlist(int rows, int cols)
{
    Netlist nl = placedNetlist(rows, cols);
    Legalizer().legalize(nl);
    EXPECT_TRUE(Legalizer::isLegal(nl));
    return nl;
}

TEST(Legalizer, ScopedPassKeepsFixedInstancesInPlace)
{
    Netlist nl = legalNetlist(4, 4);
    const std::vector<int> movable = {0, 5};
    for (int q : movable)
        nl.instance(q).pos += Vec2(250.0, -150.0);
    std::vector<Vec2> before;
    for (const Instance &inst : nl.instances())
        before.push_back(inst.pos);

    const LegalizeResult result =
        Legalizer().legalize(nl, nullptr, &movable);
    EXPECT_TRUE(result.legal);
    EXPECT_TRUE(Legalizer::isLegal(nl));
    for (int i = 0; i < nl.numInstances(); ++i) {
        if (i == movable[0] || i == movable[1])
            continue;
        EXPECT_EQ(nl.instance(i).pos.x, before[i].x) << "instance " << i;
        EXPECT_EQ(nl.instance(i).pos.y, before[i].y) << "instance " << i;
    }
}

TEST(Legalizer, ScopedPassMovesWholeResonatorChain)
{
    Netlist nl = legalNetlist(3, 3);
    const Resonator *chain = nullptr;
    for (const Resonator &res : nl.resonators())
        if (res.segments.size() >= 3) {
            chain = &res;
            break;
        }
    ASSERT_NE(chain, nullptr);

    // Drop a middle segment of the chain onto qubit 0 and name only
    // that segment movable. The closure must re-legalize the whole
    // chain (Tetris scans chains from their first segment), so the
    // overlap is resolved while every other instance stays put.
    const int mid = chain->segments[1];
    nl.instance(mid).pos = nl.instance(0).pos;
    std::vector<Vec2> before;
    for (const Instance &inst : nl.instances())
        before.push_back(inst.pos);

    const std::vector<int> movable = {mid};
    const LegalizeResult result =
        Legalizer().legalize(nl, nullptr, &movable);
    EXPECT_TRUE(result.legal);
    EXPECT_TRUE(Legalizer::isLegal(nl));
    for (const Instance &inst : nl.instances()) {
        if (inst.resonator == chain->id)
            continue;
        EXPECT_EQ(inst.pos.x, before[inst.id].x) << "instance " << inst.id;
        EXPECT_EQ(inst.pos.y, before[inst.id].y) << "instance " << inst.id;
    }
}

TEST(Legalizer, ScopedPassDemotesConflictingFixedInstance)
{
    Netlist nl = legalNetlist(3, 3);
    // Two fixed qubits on one site: the first keeps it, the second is
    // demoted to movable and re-legalized elsewhere.
    const Vec2 site = nl.instance(0).pos;
    nl.instance(1).pos = site;
    ASSERT_FALSE(Legalizer::isLegal(nl));

    const std::vector<int> movable;
    const LegalizeResult result =
        Legalizer().legalize(nl, nullptr, &movable);
    EXPECT_TRUE(result.legal);
    EXPECT_TRUE(Legalizer::isLegal(nl));
    EXPECT_EQ(nl.instance(0).pos.x, site.x);
    EXPECT_EQ(nl.instance(0).pos.y, site.y);
    EXPECT_GT(nl.instance(1).pos.dist(site), 0.0);
}

} // namespace
} // namespace qplacer
