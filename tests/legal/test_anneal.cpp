/**
 * @file
 * Property tests for the annealing detailed placer (ctest -L anneal):
 *
 *  - every accepted move leaves a legal layout (pairwise-disjoint,
 *    in-region padded footprints), checked per move via the accept
 *    hook, not just at the end;
 *  - at temperature 0 the combined objective is monotone
 *    non-increasing along the accepted trajectory;
 *  - the refinement never worsens HPWL or the collision count;
 *  - iters = 0 and non-legal inputs are exact no-ops;
 *  - the walk is deterministic per seed;
 *  - in the full flow, 40 sweeps cut the legalized HPWL of Falcon and
 *    Aspen-M by at least 1% at seeds 1-3.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "freq/assigner.hpp"
#include "legal/anneal.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "oracles/oracles.hpp"
#include "pipeline/session.hpp"
#include "topology/factory.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

/** A built and legalized netlist ready for detailed placement. */
Netlist
legalizedNetlist(int rows, int cols, std::uint64_t scatter_seed)
{
    const Topology topo = makeGrid(rows, cols);
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist nl = NetlistBuilder().build(topo, freqs);
    // Scatter the warm-start positions so legalization (and the
    // annealer after it) has real work to do.
    Rng rng(scatter_seed);
    const Rect &region = nl.region();
    for (Instance &inst : nl.instances()) {
        inst.pos.x = region.lo.x + rng.uniform() * region.width();
        inst.pos.y = region.lo.y + rng.uniform() * region.height();
    }
    nl.clampIntoRegion();
    const LegalizeResult result = Legalizer().legalize(nl);
    EXPECT_TRUE(result.legal);
    return nl;
}

DetailedPlacer
placerWith(int iters, double temp_start)
{
    DetailedPlaceParams params;
    params.iters = iters;
    params.tempStart = temp_start;
    return DetailedPlacer(params, CrosstalkRule());
}

class AnnealProperties : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AnnealProperties, EveryAcceptedMovePreservesLegality)
{
    Netlist nl = legalizedNetlist(4, 4, GetParam());
    long long hook_calls = 0;
    const DetailedStats stats = placerWith(15, 75.0).refine(
        nl, GetParam(), nullptr, [&](const Netlist &state) {
            ++hook_calls;
            ASSERT_TRUE(Legalizer::isLegal(state))
                << "accepted move " << hook_calls << " broke legality";
        });
    ASSERT_TRUE(stats.ran);
    EXPECT_EQ(hook_calls, stats.accepted);
    EXPECT_TRUE(Legalizer::isLegal(nl));
}

TEST_P(AnnealProperties, ObjectiveIsMonotoneAtZeroTemperature)
{
    Netlist nl = legalizedNetlist(4, 4, GetParam() + 100);
    const CrosstalkRule rule;
    double prev = oracle::detailedObjective(nl, rule);
    const DetailedStats stats = placerWith(15, /*temp_start=*/0.0).refine(
        nl, GetParam(), nullptr, [&](const Netlist &state) {
            const double now = oracle::detailedObjective(state, rule);
            // Deltas are incremental; allow only FP noise uphill.
            EXPECT_LE(now, prev + 1e-6 * (1.0 + std::abs(prev)));
            prev = now;
        });
    ASSERT_TRUE(stats.ran);
}

TEST_P(AnnealProperties, NeverWorsensHpwlOrCollisions)
{
    Netlist nl = legalizedNetlist(5, 5, GetParam() + 200);
    const DetailedStats stats = placerWith(20, 75.0).refine(nl, GetParam());
    ASSERT_TRUE(stats.ran);
    EXPECT_LE(stats.hpwlAfter, stats.hpwlBefore);
    EXPECT_LE(stats.collisionsAfter, stats.collisionsBefore);
    // The reported after-HPWL is the exact HPWL of the returned layout.
    EXPECT_EQ(stats.hpwlAfter, nl.hpwl());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnnealProperties,
                         ::testing::Values(11, 42, 137));

TEST(Anneal, DeterministicPerSeed)
{
    const Netlist base = legalizedNetlist(4, 4, 7);
    Netlist a = base;
    Netlist b = base;
    const DetailedStats sa = placerWith(12, 50.0).refine(a, 99);
    const DetailedStats sb = placerWith(12, 50.0).refine(b, 99);
    ASSERT_TRUE(sa.ran);
    ASSERT_TRUE(sb.ran);
    EXPECT_TRUE(bitwiseSameLayout(a, b));
    EXPECT_EQ(sa.accepted, sb.accepted);
    EXPECT_EQ(sa.proposed, sb.proposed);
    EXPECT_EQ(sa.hpwlAfter, sb.hpwlAfter);
}

TEST(Anneal, ZeroItersIsAnExactNoOp)
{
    const Netlist base = legalizedNetlist(4, 4, 3);
    Netlist nl = base;
    const DetailedStats stats = placerWith(0, 75.0).refine(nl, 1);
    EXPECT_FALSE(stats.ran);
    EXPECT_EQ(stats.proposed, 0);
    EXPECT_TRUE(bitwiseSameLayout(base, nl));
}

TEST(Anneal, NonLegalInputIsReturnedUntouched)
{
    const Topology topo = makeGrid(3, 3);
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist nl = NetlistBuilder().build(topo, freqs);
    // Pile everything onto one point: not a legal layout, so the
    // occupancy build must fail and the netlist must come back as-is.
    const Vec2 center(nl.region().lo.x + 0.5 * nl.region().width(),
                      nl.region().lo.y + 0.5 * nl.region().height());
    for (Instance &inst : nl.instances())
        inst.pos = center;
    const Netlist before = nl;
    const DetailedStats stats = placerWith(10, 75.0).refine(nl, 1);
    EXPECT_FALSE(stats.ran);
    EXPECT_TRUE(bitwiseSameLayout(before, nl));
}

TEST(Anneal, CancelStopsBetweenSweeps)
{
    Netlist nl = legalizedNetlist(4, 4, 5);
    CancelToken cancel;
    cancel.cancel();
    const DetailedStats stats =
        placerWith(40, 75.0).refine(nl, 1, &cancel);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.sweeps, 0);
    EXPECT_TRUE(Legalizer::isLegal(nl));
}

TEST(Anneal, FortySweepsCutLegalizedHpwlOnPaperDevices)
{
    // The stage's effect on real layouts, not only its guarantees: on
    // the default Qplacer flow, 40 sweeps take at least 1% off the
    // legalized HPWL, and never add a hotspot pair.
    for (const char *device : {"Falcon", "Aspen-M"}) {
        std::vector<FlowParams> jobs(3);
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            jobs[k].placer.seed = k + 1;
            jobs[k].detailed.iters = 40;
        }
        const std::vector<FlowResult> results =
            PlacementSession().runBatch(makeTopology(device), jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (std::size_t k = 0; k < results.size(); ++k) {
            SCOPED_TRACE(::testing::Message() << device << " seed " << k + 1);
            ASSERT_TRUE(results[k].status.ok());
            const DetailedStats &d = results[k].detailed;
            ASSERT_TRUE(d.ran);
            EXPECT_LE(d.hpwlAfter, 0.99 * d.hpwlBefore);
            EXPECT_LE(d.collisionsAfter, d.collisionsBefore);
            std::printf("%s seed %zu: HPWL %.1f -> %.1f um, pairs %d -> %d\n",
                        device, k + 1, d.hpwlBefore, d.hpwlAfter,
                        d.collisionsBefore, d.collisionsAfter);
        }
    }
}

} // namespace
} // namespace qplacer
