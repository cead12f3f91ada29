/**
 * @file
 * The paper's headline claims (Fig. 1, 11, 12, 13) as seed-set gates:
 * Qplacer against Classic and Human on Falcon, Aspen-M and Eagle.
 * The seed set and every bound are stated once in docs/ARCHITECTURE.md,
 * "The paper-claim suite"; run with `ctest -L paper -V` to see the
 * per-device medians. The per-draw checks live in paper_claims.hpp,
 * shared with the one-draw `EndToEnd` gate.
 *
 * One TEST per device: CTest runs each in its own process, so a shared
 * fixture would repeat every placement once per test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <vector>

#include "math/stats.hpp"
#include "paper_claims.hpp"
#include "pipeline/session.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

using namespace paper_claims;

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};

/** bv-16 over the Evaluator's default 50 subsets. */
BenchmarkResult
bv16Of(const Topology &topo, const FlowResult &flow)
{
    return Evaluator().evaluate(topo, flow.netlist, flow.hotspots,
                                makeBenchmark("bv-16"));
}

void
checkPaperClaims(const char *device)
{
    const Topology topo = makeTopology(device);

    // Qplacer and Classic at every seed, then Human once (it ignores
    // the seed).
    std::vector<FlowParams> jobs;
    for (const PlacerMode mode : {PlacerMode::Qplacer, PlacerMode::Classic})
        for (const std::uint64_t seed : kSeeds)
            jobs.push_back(job(mode, seed));
    jobs.push_back(job(PlacerMode::Human, 1));

    const std::vector<FlowResult> results =
        PlacementSession().runBatch(topo, jobs);
    for (const FlowResult &r : results)
        ASSERT_TRUE(r.status.ok()) << r.status.message;

    const std::size_t n = std::size(kSeeds);
    const FlowResult &human = results.back();
    const BenchmarkResult bv4_h = bv4Of(topo, human);
    const int resonators = static_cast<int>(human.netlist.resonators().size());

    std::vector<double> ph_q, ph_c, bv16_q, bv16_c, area_h_over_q,
        area_c_over_q;
    int max_unintegrated = 0;
    for (std::size_t s = 0; s < n; ++s) {
        SCOPED_TRACE(::testing::Message() << device << " seed " << kSeeds[s]);
        const FlowResult &q = results[s];
        const FlowResult &c = results[n + s];
        const BenchmarkResult bv4_q = bv4Of(topo, q);
        const BenchmarkResult bv4_c = bv4Of(topo, c);

        expectHotspotOrdering(q, c, human);
        expectImpactedQubitOrdering(q, c, human);
        expectAreaOrdering(q, c, human);
        expectFidelityOrdering(bv4_q, bv4_c, bv4_h);
        expectSameMappings(bv4_q, bv4_c, bv4_h);
        expectResonatorsIntegrated(q);
        max_unintegrated =
            std::max(max_unintegrated, q.legal.integration.unintegrated);

        ph_q.push_back(q.hotspots.phPercent);
        ph_c.push_back(c.hotspots.phPercent);
        bv16_q.push_back(bv16Of(topo, q).meanFidelity);
        bv16_c.push_back(bv16Of(topo, c).meanFidelity);
        area_h_over_q.push_back(human.area.amerUm2 / q.area.amerUm2);
        area_c_over_q.push_back(c.area.amerUm2 / q.area.amerUm2);
    }

    // The paper's magnitudes, on the medians over the seed set.
    const double f16_h = bv16Of(topo, human).meanFidelity;
    EXPECT_GE(median(ph_c), 10.0 * median(ph_q));
    EXPECT_GE(median(bv16_q), 100.0 * median(bv16_c));
    EXPECT_GE(median(bv16_q), 0.1 * f16_h);
    EXPECT_LE(median(bv16_q), 1.05 * f16_h);

    std::printf("%s medians: P_h %% Q %.2f C %.2f H %.2f | A_mer/A_mer(Q) "
                "C %.3f H %.3f | bv-16 fidelity Q %.3g C %.3g H %.3g | "
                "max unintegrated %d/%d\n",
                device, median(ph_q), median(ph_c), human.hotspots.phPercent,
                median(area_c_over_q), median(area_h_over_q), median(bv16_q),
                median(bv16_c), f16_h, max_unintegrated, resonators);
}

TEST(PaperClaims, Falcon) { checkPaperClaims("Falcon"); }

TEST(PaperClaims, AspenM) { checkPaperClaims("Aspen-M"); }

TEST(PaperClaims, Eagle) { checkPaperClaims("Eagle"); }

} // namespace
} // namespace qplacer
