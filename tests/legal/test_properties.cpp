/**
 * @file
 * Property tests for the legalizer stack: invariants that must hold
 * for *any* input, exercised on randomized clustered layouts that are
 * far harsher than the gently-spread placements the example-based
 * tests feed it. After legalization:
 *
 *  - no two qubits occupy the same site (distinct, non-overlapping
 *    padded footprints),
 *  - every instance's padded footprint lies inside the region, and
 *  - the reported displacement is finite and non-negative.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "freq/assigner.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

Netlist
builtNetlist(int rows, int cols)
{
    const Topology topo = makeGrid(rows, cols);
    const auto freqs = FrequencyAssigner().assign(topo);
    return NetlistBuilder().build(topo, freqs);
}

/**
 * Jam every instance into a gaussian blob around @p center_frac (as a
 * fraction of the region) — the pathological overlap-everything input
 * the global placer never quite produces but the legalizer must still
 * digest.
 */
void
clusterPositions(Netlist &nl, std::uint64_t seed, double center_frac_x,
                 double center_frac_y)
{
    Rng rng(seed);
    const Rect &region = nl.region();
    const Vec2 center(region.lo.x + center_frac_x * region.width(),
                      region.lo.y + center_frac_y * region.height());
    const double spread = 0.05 * std::min(region.width(),
                                          region.height());
    for (Instance &inst : nl.instances()) {
        inst.pos.x = rng.gaussian(center.x, spread);
        inst.pos.y = rng.gaussian(center.y, spread);
    }
    nl.clampIntoRegion();
}

void
expectLegalizedInvariants(const Netlist &nl, const LegalizeResult &result)
{
    // Invariant 1: no two qubits share a site. Padded qubit footprints
    // must be pairwise disjoint (checked directly, not via isLegal, so
    // a violation names the offending pair).
    const int nq = nl.numQubits();
    for (int i = 0; i < nq; ++i) {
        const Rect a = nl.instance(i).paddedRect();
        for (int j = i + 1; j < nq; ++j) {
            const Rect b = nl.instance(j).paddedRect();
            const double overlap_w =
                std::min(a.hi.x, b.hi.x) - std::max(a.lo.x, b.lo.x);
            const double overlap_h =
                std::min(a.hi.y, b.hi.y) - std::max(a.lo.y, b.lo.y);
            EXPECT_FALSE(overlap_w > 1.0 && overlap_h > 1.0)
                << "qubits " << i << " and " << j << " share a site";
        }
    }

    // Invariant 2: every padded footprint is in-bounds.
    const Rect &region = nl.region();
    for (const Instance &inst : nl.instances()) {
        const Rect fp = inst.paddedRect();
        EXPECT_GE(fp.lo.x, region.lo.x - 1e-6) << "instance " << inst.id;
        EXPECT_GE(fp.lo.y, region.lo.y - 1e-6) << "instance " << inst.id;
        EXPECT_LE(fp.hi.x, region.hi.x + 1e-6) << "instance " << inst.id;
        EXPECT_LE(fp.hi.y, region.hi.y + 1e-6) << "instance " << inst.id;
        EXPECT_TRUE(std::isfinite(inst.pos.x) &&
                    std::isfinite(inst.pos.y))
            << "instance " << inst.id;
    }

    // Invariant 3: displacement accounting is finite and sane.
    EXPECT_TRUE(std::isfinite(result.qubitDisplacementUm));
    EXPECT_TRUE(std::isfinite(result.segmentDisplacementUm));
    EXPECT_GE(result.qubitDisplacementUm, 0.0);
    EXPECT_GE(result.segmentDisplacementUm, 0.0);

    // And the stack's own verdict must agree.
    EXPECT_TRUE(Legalizer::isLegal(nl));
}

class LegalizerProperties : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LegalizerProperties, CornerClusterIsLegalized)
{
    Netlist nl = builtNetlist(4, 4);
    clusterPositions(nl, GetParam(), 0.1, 0.1);
    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    expectLegalizedInvariants(nl, result);
}

TEST_P(LegalizerProperties, CenterClusterIsLegalized)
{
    Netlist nl = builtNetlist(5, 5);
    clusterPositions(nl, GetParam() + 1000, 0.5, 0.5);
    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    expectLegalizedInvariants(nl, result);
}

TEST_P(LegalizerProperties, EdgeClusterWithoutRefinePasses)
{
    // The spiral legalizer alone (integration off) must already
    // establish the occupancy invariants.
    Netlist nl = builtNetlist(4, 4);
    clusterPositions(nl, GetParam() + 2000, 0.9, 0.2);
    LegalizerParams params;
    params.integration = false;
    const LegalizeResult result = Legalizer(params).legalize(nl);
    expectLegalizedInvariants(nl, result);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegalizerProperties,
                         ::testing::Values(11, 42, 137, 9001));

TEST(LegalizerProperties, CoincidentPositionsAreSeparated)
{
    // Fully degenerate input: every instance at the exact same point.
    Netlist nl = builtNetlist(3, 3);
    const Vec2 center(nl.region().lo.x + 0.5 * nl.region().width(),
                      nl.region().lo.y + 0.5 * nl.region().height());
    for (Instance &inst : nl.instances())
        inst.pos = center;
    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    expectLegalizedInvariants(nl, result);
}

} // namespace
} // namespace qplacer
