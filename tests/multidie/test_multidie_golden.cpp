/**
 * @file
 * Multi-die flow contracts (ctest -L multidie):
 *
 *  - single-die equivalence: a "@dies=1x1" suffix (with any cut gap,
 *    and with multidie.cutWeight set) must reproduce the plain
 *    single-die flow bitwise. The multi-die code paths gate on
 *    DieSpec::active(), so an inactive spec may not perturb one bit of
 *    the layout;
 *  - crossing reduction: on a 2-die grid, turning the cut penalty on
 *    keeps the layout legal and strictly reduces the crossing couplers
 *    at every seed of a seed set.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "pipeline/session.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

Topology
resolve(const std::string &spec)
{
    Topology topo;
    std::string error;
    if (!resolveTopologySpec(spec, topo, &error))
        ADD_FAILURE() << spec << ": " << error;
    return topo;
}

FlowParams
flowParams(double cut_weight, std::uint64_t seed)
{
    FlowParams params;
    params.mode = PlacerMode::Qplacer;
    params.partition.segmentUm = 300.0;
    params.placer.seed = seed;
    params.placer.threads = 1;
    params.placer.cutWeight = cut_weight;
    return params;
}

FlowResult
runFlow(const std::string &spec, double cut_weight = 0.0)
{
    return PlacementSession().run(resolve(spec), flowParams(cut_weight, 1));
}

TEST(MultidieGolden, SingleDieSuffixIsBitwiseIdentical)
{
    const FlowResult plain = runFlow("grid6x6");
    const FlowResult suffixed = runFlow("grid6x6@dies=1x1");
    ASSERT_TRUE(plain.status.ok());
    ASSERT_TRUE(suffixed.status.ok());
    EXPECT_TRUE(bitwiseSameNetlist(plain.netlist, suffixed.netlist));
    EXPECT_TRUE(bitwiseSameLayout(plain.netlist, suffixed.netlist));
    EXPECT_FALSE(suffixed.multidie.active);
}

TEST(MultidieGolden, CutGapOptionIsInertOnSingleDie)
{
    const FlowResult plain = runFlow("grid6x6");
    const FlowResult gapped = runFlow("grid6x6@dies=1x1:cutGapUm=500");
    ASSERT_TRUE(plain.status.ok());
    ASSERT_TRUE(gapped.status.ok());
    EXPECT_TRUE(bitwiseSameLayout(plain.netlist, gapped.netlist));
}

TEST(MultidieGolden, CutWeightIsInertOnSingleDie)
{
    const FlowResult plain = runFlow("grid6x6");
    const FlowResult weighted = runFlow("grid6x6@dies=1x1", 4.0);
    ASSERT_TRUE(plain.status.ok());
    ASSERT_TRUE(weighted.status.ok());
    EXPECT_TRUE(bitwiseSameLayout(plain.netlist, weighted.netlist));

    // And without any suffix at all: cutWeight gates on an active die
    // spec, so setting it alone changes nothing.
    const FlowResult weighted_plain = runFlow("grid6x6", 4.0);
    ASSERT_TRUE(weighted_plain.status.ok());
    EXPECT_TRUE(bitwiseSameLayout(plain.netlist, weighted_plain.netlist));
}

TEST(MultidieGolden, MultiDieRunIsDeterministic)
{
    const FlowResult a = runFlow("grid6x6@dies=2x1", 2.0);
    const FlowResult b = runFlow("grid6x6@dies=2x1", 2.0);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(bitwiseSameNetlist(a.netlist, b.netlist));
    EXPECT_TRUE(bitwiseSameLayout(a.netlist, b.netlist));
    EXPECT_TRUE(a.multidie.active);
    EXPECT_EQ(a.multidie.crossingCouplers, b.multidie.crossingCouplers);
}

TEST(MultidieGolden, CutPenaltyReducesCrossingsOverSeeds)
{
    constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};
    constexpr double kCutWeight = 2.0;
    const Topology topo = resolve("grid8x8@dies=2x1");

    // Penalty off at every seed, then penalty on at every seed.
    std::vector<FlowParams> jobs;
    for (const double weight : {0.0, kCutWeight})
        for (const std::uint64_t seed : kSeeds)
            jobs.push_back(flowParams(weight, seed));
    const std::vector<FlowResult> results =
        PlacementSession().runBatch(topo, jobs);

    const std::size_t n = std::size(kSeeds);
    for (std::size_t s = 0; s < n; ++s) {
        SCOPED_TRACE(::testing::Message() << "seed " << kSeeds[s]);
        const FlowResult &off = results[s];
        const FlowResult &on = results[n + s];
        ASSERT_TRUE(off.status.ok()) << off.status.message;
        ASSERT_TRUE(on.status.ok()) << on.status.message;
        EXPECT_TRUE(off.legal.legal);
        EXPECT_TRUE(on.legal.legal);
        EXPECT_LT(on.multidie.crossingCouplers,
                  off.multidie.crossingCouplers);
        std::printf("seed %llu: crossings %d -> %d\n",
                    static_cast<unsigned long long>(kSeeds[s]),
                    off.multidie.crossingCouplers,
                    on.multidie.crossingCouplers);
    }
}

} // namespace
} // namespace qplacer
