/**
 * @file
 * Golden placement regressions: the full flow on two fixed-seed
 * devices must keep producing layouts of the checked-in quality.
 *
 * Wirelength, density overflow, and an evaluator fidelity proxy are
 * pinned against golden values with explicit tolerances, so an
 * optimization that silently degrades placement quality (rather than
 * crashing) fails here first. The bands are deliberately wider than
 * the run-to-run spread of a fixed seed (which is zero — the flow is
 * deterministic) to absorb benign cross-compiler floating-point
 * drift (e.g. FMA contraction differences between -O0 and -O2);
 * anything outside them is a real quality change and should be a
 * conscious decision, recorded by updating the golden.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "circuits/benchmarks.hpp"
#include "eval/evaluator.hpp"
#include "legal/legalizer.hpp"
#include "pipeline/session.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

/** Checked-in quality bar for one fixed-seed flow run. */
struct Golden
{
    const char *name;     ///< Human-readable device name.
    double hpwlUm;        ///< Final global-placement HPWL.
    double hpwlRelTol;    ///< Allowed relative HPWL drift.
    double overflowMax;   ///< Final density overflow ceiling.
    const char *circuit;  ///< Benchmark for the fidelity proxy.
    double fidelity;      ///< Mean evaluator fidelity (Eq. 15).
    double fidelityTol;   ///< Allowed absolute fidelity drift.
};

constexpr std::uint64_t kSeed = 1;

void
checkGolden(const Topology &topo, const Golden &g)
{
    FlowParams params;
    params.mode = PlacerMode::Qplacer;
    params.partition.segmentUm = 300.0;
    params.placer.seed = kSeed;
    // Pinned to one thread so parallel ctest runs do not oversubscribe
    // the runner; the layout, and so the golden, is the same at any
    // thread count.
    params.placer.threads = 1;
    const FlowResult r = PlacementSession().run(topo, params);
    ASSERT_TRUE(r.status.ok()) << g.name << ": " << r.status.message;

    // Printed so a deliberate quality change can copy the new goldens
    // straight from the test log.
    std::printf("[golden] %s: hpwl=%.6g overflow=%.6g\n", g.name,
                r.place.finalHpwl, r.place.finalOverflow);

    // (Convergence itself is not asserted: on these devices the seed
    // engine exits on the plateau heuristic; the quality bands below
    // are the regression contract.)
    EXPECT_GT(r.place.iterations, 0) << g.name;
    EXPECT_TRUE(r.legal.legal) << g.name;
    EXPECT_TRUE(Legalizer::isLegal(r.netlist)) << g.name;

    EXPECT_NEAR(r.place.finalHpwl, g.hpwlUm, g.hpwlRelTol * g.hpwlUm)
        << g.name << ": global-placement wirelength drifted";
    EXPECT_GE(r.place.finalOverflow, 0.0) << g.name;
    EXPECT_LE(r.place.finalOverflow, g.overflowMax)
        << g.name << ": density overflow regressed";

    EvaluatorParams eparams;
    eparams.numSubsets = 8; // Fixed subsetSeed: same mappings forever.
    const Evaluator evaluator(eparams);
    const BenchmarkResult b = evaluator.evaluate(
        topo, r.netlist, r.hotspots, makeBenchmark(g.circuit));
    std::printf("[golden] %s: %s fidelity=%.6g\n", g.name, g.circuit,
                b.meanFidelity);
    EXPECT_NEAR(b.meanFidelity, g.fidelity, g.fidelityTol)
        << g.name << ": " << g.circuit << " fidelity proxy drifted";
}

TEST(Golden, Grid8x8)
{
    // 64 qubits / ~1400 instances; the plateau exit leaves a sizeable
    // residual overflow on this crowded device — the ceiling pins it.
    const Golden golden = {
        "grid8x8",
        1.82686e7, // hpwlUm
        0.05,      // hpwlRelTol
        0.30,      // overflowMax (measured 0.2548)
        "bv-9",
        0.01338, // fidelity
        0.004,   // fidelityTol (~±30%)
    };
    checkGolden(makeGrid(8, 8), golden);
}

TEST(Golden, HeavyHex3x5)
{
    // The smallest 3-row heavy-hex the generator accepts (row width
    // has a floor of 5), giving a second, structurally different
    // device beside the grid.
    const Golden golden = {
        "heavyhex3x5",
        121273.0, // hpwlUm
        0.05,     // hpwlRelTol
        0.09,     // overflowMax (measured 0.0658)
        "bv-9",
        0.03954, // fidelity
        0.012,   // fidelityTol (~±30%)
    };
    checkGolden(makeHeavyHex(3, 5), golden);
}

} // namespace
} // namespace qplacer
