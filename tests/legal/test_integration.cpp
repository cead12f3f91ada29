#include <gtest/gtest.h>

#include "legal/integration.hpp"

namespace qplacer {
namespace {

/** Build a netlist with one 2-qubit coupler whose segments we position
 *  by hand, plus an optional foreign resonator. */
struct Fixture
{
    Netlist nl;
    int resA = -1;
    int resB = -1;

    explicit Fixture(int segments_a, int segments_b = 0)
    {
        for (int q = 0; q < 2; ++q) {
            Instance inst;
            inst.kind = InstanceKind::Qubit;
            inst.width = inst.height = 400;
            inst.pad = 400;
            inst.freqHz = 4.8e9 + q * 0.2e9;
            nl.addInstance(inst);
        }
        resA = addResonator(segments_a, 6.5e9);
        if (segments_b > 0)
            resB = addResonator(segments_b, 6.5e9);
        nl.setRegion(Rect(0, 0, 12000, 12000));
    }

    int
    addResonator(int count, double freq)
    {
        Resonator res;
        res.qubitA = 0;
        res.qubitB = 1;
        res.freqHz = freq;
        res.lengthUm = 10000;
        const int id = static_cast<int>(nl.resonators().size());
        for (int s = 0; s < count; ++s) {
            Instance seg;
            seg.kind = InstanceKind::ResonatorSegment;
            seg.resonator = id;
            seg.segment = s;
            seg.width = seg.height = 300;
            seg.pad = 100;
            seg.freqHz = freq;
            res.segments.push_back(nl.addInstance(seg));
        }
        nl.addResonator(res);
        return id;
    }

    void
    placeChain(int res_id, Vec2 start, double pitch)
    {
        const Resonator &res = nl.resonator(res_id);
        for (std::size_t s = 0; s < res.segments.size(); ++s) {
            nl.instance(res.segments[s]).pos =
                Vec2(start.x + pitch * static_cast<double>(s), start.y);
        }
    }
};

TEST(Integration, ContiguousChainIsLegal)
{
    Fixture f(5);
    f.placeChain(f.resA, {1000, 1000}, 400); // abutting blocks
    const IntegrationLegalizer legalizer;
    EXPECT_NO_THROW(f.nl.validate());
    EXPECT_TRUE(legalizer.integrationLegal(f.nl, f.resA));
    EXPECT_EQ(legalizer.clusters(f.nl, f.resA).size(), 1u);
}

TEST(Integration, SingletonBreaksLegality)
{
    Fixture f(5);
    f.placeChain(f.resA, {1000, 1000}, 400);
    // Strand the last segment far away.
    f.nl.instance(f.nl.resonator(f.resA).segments.back()).pos =
        Vec2(9000, 9000);
    const IntegrationLegalizer legalizer;
    EXPECT_FALSE(legalizer.integrationLegal(f.nl, f.resA));
    EXPECT_EQ(legalizer.clusters(f.nl, f.resA).size(), 2u);
}

TEST(Integration, TwoBlocksOfTwoPlusAreLegal)
{
    // rilc is the paper's buddy criterion: split blocks are routable as
    // long as no segment is isolated (Fig. 8-e).
    Fixture f(6);
    const auto &segments = f.nl.resonator(f.resA).segments;
    for (int s = 0; s < 3; ++s)
        f.nl.instance(segments[s]).pos = Vec2(1000 + 400 * s, 1000);
    for (int s = 3; s < 6; ++s)
        f.nl.instance(segments[s]).pos = Vec2(7000 + 400 * (s - 3), 7000);
    const IntegrationLegalizer legalizer;
    EXPECT_TRUE(legalizer.integrationLegal(f.nl, f.resA));
}

TEST(Integration, SingleSegmentResonatorIsLegal)
{
    Fixture f(1);
    f.placeChain(f.resA, {2000, 2000}, 400);
    const IntegrationLegalizer legalizer;
    EXPECT_TRUE(legalizer.integrationLegal(f.nl, f.resA));
}

TEST(Integration, RepairReattachesStrandedSegment)
{
    Fixture f(5);
    f.placeChain(f.resA, {2000, 2000}, 400);
    Instance &stray =
        f.nl.instance(f.nl.resonator(f.resA).segments.back());
    stray.pos = Vec2(9000, 9000);

    OccupancyGrid grid(f.nl.region(), 100);
    for (const Instance &inst : f.nl.instances()) {
        if (inst.kind == InstanceKind::ResonatorSegment) {
            grid.occupy(Rect::fromCenter(inst.pos, inst.paddedWidth(),
                                         inst.paddedHeight()),
                        inst.id);
        }
    }
    const IntegrationLegalizer legalizer;
    const auto result = legalizer.run(f.nl, grid);
    EXPECT_EQ(result.initiallyBroken, 1);
    EXPECT_EQ(result.unintegrated, 0);
    EXPECT_TRUE(legalizer.integrationLegal(f.nl, f.resA));
}

TEST(Integration, ResonanceCheckBlocksBadMoves)
{
    // Foreign resonator at the same frequency sits right next to the
    // core cluster; with the tau check on, the repair must not create a
    // resonant adjacency when re-attaching the stray segment.
    Fixture f(4, 3);
    f.placeChain(f.resA, {2000, 2000}, 400);
    f.placeChain(f.resB, {2000, 2800}, 400); // resonant neighbours above
    Instance &stray =
        f.nl.instance(f.nl.resonator(f.resA).segments.back());
    stray.pos = Vec2(9000, 9000);

    OccupancyGrid grid(f.nl.region(), 100);
    for (const Instance &inst : f.nl.instances()) {
        if (inst.kind == InstanceKind::ResonatorSegment) {
            grid.occupy(Rect::fromCenter(inst.pos, inst.paddedWidth(),
                                         inst.paddedHeight()),
                        inst.id);
        }
    }
    const IntegrationLegalizer legalizer(/*resonance_check=*/true);
    legalizer.run(f.nl, grid);

    // Wherever the stray ended up, it must not be adjacent to the
    // foreign resonant chain.
    const Rect stray_fp = stray.paddedRect();
    for (int seg : f.nl.resonator(f.resB).segments) {
        const Rect other = f.nl.instance(seg).paddedRect();
        EXPECT_GT(stray_fp.gap(other), CrosstalkRule().adjacencyTolUm)
            << "stray re-attached next to a resonant foreign segment";
    }
}

TEST(Integration, TauProbeReachFollowsTheRuleTolerance)
{
    // A resonant foreign segment whose padded footprint sits 100 um
    // from the probed site: the probe must see it under a 150 um rule
    // and miss it under the default 50 um one.
    Fixture f(1, 1);
    const Instance &foreign =
        f.nl.instance(f.nl.resonator(f.resB).segments.front());
    f.nl.instance(foreign.id).pos = Vec2(2000, 2000);
    OccupancyGrid grid(f.nl.region(), 100);
    grid.occupy(foreign.paddedRect(), foreign.id);

    const Instance &seg =
        f.nl.instance(f.nl.resonator(f.resA).segments.front());
    const Vec2 site(2000 + foreign.paddedWidth() + 100, 2000);
    ASSERT_DOUBLE_EQ(Rect::fromCenter(site, seg.paddedWidth(),
                                      seg.paddedHeight())
                         .gap(foreign.paddedRect()),
                     100.0);

    std::vector<std::int32_t> scratch;
    CrosstalkRule rule;
    rule.adjacencyTolUm = 50.0;
    EXPECT_TRUE(resonanceOk(f.nl, grid, rule, seg, site, scratch));
    rule.adjacencyTolUm = 150.0;
    EXPECT_FALSE(resonanceOk(f.nl, grid, rule, seg, site, scratch));
    // Detuned beyond the threshold, the same neighbour is harmless.
    rule.detuningThresholdHz = 1e3;
    f.nl.instance(foreign.id).freqHz += 1e6;
    EXPECT_TRUE(resonanceOk(f.nl, grid, rule, seg, site, scratch));
}

} // namespace
} // namespace qplacer
