/**
 * @file
 * The paper's per-draw claims: the Fig. 11-13 orderings of Qplacer (Q)
 * against Classic (C) and Human (H) on one placement of each. Shared by
 * the one-draw Falcon gate (`EndToEnd`) and the seed-set suite
 * (`PaperClaims`, `ctest -L paper`); the bounds are stated once in
 * docs/ARCHITECTURE.md, "The paper-claim suite".
 */

#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "circuits/benchmarks.hpp"
#include "eval/evaluator.hpp"
#include "pipeline/flow.hpp"
#include "topology/topology.hpp"

namespace qplacer {
namespace paper_claims {

/** One placement job, pinned to one thread like the goldens so
 *  parallel ctest runs do not oversubscribe the cores; the layout is
 *  the same at any thread count. */
inline FlowParams
job(PlacerMode mode, std::uint64_t seed)
{
    FlowParams params;
    params.mode = mode;
    params.placer.seed = seed;
    params.placer.threads = 1;
    return params;
}

/** bv-4 over 15 subsets, the per-draw fidelity benchmark. */
inline BenchmarkResult
bv4Of(const Topology &topo, const FlowResult &flow)
{
    EvaluatorParams params;
    params.numSubsets = 15;
    return Evaluator(params).evaluate(topo, flow.netlist, flow.hotspots,
                                      makeBenchmark("bv-4"));
}

/** Fig. 12: P_h(Q) << P_h(C); Human is hotspot-free. */
inline void
expectHotspotOrdering(const FlowResult &q, const FlowResult &c,
                      const FlowResult &h)
{
    EXPECT_LT(q.hotspots.phPercent, 0.2 * c.hotspots.phPercent);
    EXPECT_DOUBLE_EQ(h.hotspots.phPercent, 0.0);
}

inline void
expectImpactedQubitOrdering(const FlowResult &q, const FlowResult &c,
                            const FlowResult &h)
{
    EXPECT_LT(q.hotspots.impactedQubits.size(),
              c.hotspots.impactedQubits.size());
    EXPECT_EQ(h.hotspots.impactedQubits.size(), 0u);
}

/** Fig. 13: Classic ~ Qplacer in area; Human is much larger. */
inline void
expectAreaOrdering(const FlowResult &q, const FlowResult &c,
                   const FlowResult &h)
{
    EXPECT_GT(h.area.amerUm2, 1.5 * q.area.amerUm2);
    EXPECT_LT(c.area.amerUm2, 1.3 * q.area.amerUm2);
    EXPECT_GT(c.area.amerUm2, 0.7 * q.area.amerUm2);
}

/** Fig. 11 / Fig. 1 on bv-4: the frequency-aware layout wins by a large
 *  factor; Human is crosstalk-free, so Qplacer can at best match it. */
inline void
expectFidelityOrdering(const BenchmarkResult &q, const BenchmarkResult &c,
                       const BenchmarkResult &h)
{
    EXPECT_GT(q.meanFidelity, 5.0 * c.meanFidelity);
    EXPECT_LE(q.meanFidelity, h.meanFidelity + 0.05);
    EXPECT_GT(q.meanFidelity, 0.3);
}

inline void
expectResonatorsIntegrated(const FlowResult &q)
{
    const int total = static_cast<int>(q.netlist.resonators().size());
    EXPECT_LT(q.legal.integration.unintegrated, total / 4);
}

/** Subset sampling does not depend on the layout (Section VI-A). */
inline void
expectSameMappings(const BenchmarkResult &q, const BenchmarkResult &c,
                   const BenchmarkResult &h)
{
    EXPECT_EQ(q.meanSwaps, c.meanSwaps);
    EXPECT_EQ(q.meanSwaps, h.meanSwaps);
}

} // namespace paper_claims
} // namespace qplacer
