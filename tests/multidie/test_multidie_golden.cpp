/**
 * @file
 * Multi-die flow contracts (ctest -L multidie):
 *
 *  - single-die equivalence: a "@dies=1x1" suffix (with any cut gap)
 *    must reproduce the plain single-die flow bitwise. The multi-die
 *    code paths gate on DieSpec::active(), so an inactive spec may not
 *    perturb one bit of the layout;
 *  - crossing floor: on a 2-die 8x8 grid with the frequency force off,
 *    every seed of a seed set converges to a legal layout that crosses
 *    the cut with at most one coupler per grid row.
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
flowParams(std::uint64_t seed)
{
    FlowParams params;
    params.mode = PlacerMode::Qplacer;
    params.partition.segmentUm = 300.0;
    params.placer.seed = seed;
    params.placer.threads = 1;
    return params;
}

FlowResult
runFlow(const std::string &spec)
{
    return PlacementSession().run(resolve(spec), flowParams(1));
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

TEST(MultidieGolden, MultiDieRunIsDeterministic)
{
    const FlowResult a = runFlow("grid6x6@dies=2x1");
    const FlowResult b = runFlow("grid6x6@dies=2x1");
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(bitwiseSameNetlist(a.netlist, b.netlist));
    EXPECT_TRUE(bitwiseSameLayout(a.netlist, b.netlist));
    EXPECT_TRUE(a.multidie.active);
    EXPECT_EQ(a.multidie.crossingCouplers, b.multidie.crossingCouplers);
}

TEST(MultidieGolden, ForceOffCrossesOneCouplerPerRow)
{
    constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};
    // A 2x1 split of an 8x8 grid cuts its 8 rows: one crossing coupler
    // per row is the floor for any layout that keeps the grid's shape.
    constexpr int kRowFloor = 8;
    const Topology topo = resolve("grid8x8@dies=2x1");

    std::vector<FlowParams> jobs;
    for (const std::uint64_t seed : kSeeds) {
        jobs.push_back(flowParams(seed));
        jobs.back().placer.freqForce = false;
    }
    const std::vector<FlowResult> results =
        PlacementSession().runBatch(topo, jobs);

    ASSERT_EQ(results.size(), std::size(kSeeds));
    for (std::size_t s = 0; s < results.size(); ++s) {
        SCOPED_TRACE(::testing::Message() << "seed " << kSeeds[s]);
        const FlowResult &r = results[s];
        ASSERT_TRUE(r.status.ok()) << r.status.message;
        EXPECT_TRUE(r.legal.legal);
        EXPECT_TRUE(r.place.converged);
        EXPECT_TRUE(r.multidie.active);
        EXPECT_LE(r.multidie.crossingCouplers, kRowFloor);
        std::printf("seed %llu: %d crossings, %d iterations\n",
                    static_cast<unsigned long long>(kSeeds[s]),
                    r.multidie.crossingCouplers, r.place.iterations);
    }
}

} // namespace
} // namespace qplacer
