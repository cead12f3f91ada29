/**
 * @file
 * 1000+ qubit legalizer smoke (ctest -L legal): the full legalization
 * stack must digest a grid32x32 instance (1024 qubits, ~24k cells) --
 * the scale the ROADMAP targets beyond the paper devices -- produce a
 * legal layout, and report populated sub-stage timings. The sparse
 * flow-refine path is active at this size (1024 > the default
 * threshold of 512), so this also smokes the k-nearest candidate
 * generation end to end.
 */

#include <gtest/gtest.h>

#include "freq/assigner.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace qplacer {
namespace {

TEST(LegalizerScale, Grid32x32SmokesThroughTheFastPath)
{
    const Topology topo = makeGrid(32, 32);
    const auto freqs = FrequencyAssigner().assign(topo);
    Netlist nl = NetlistBuilder().build(topo, freqs);
    ASSERT_GE(nl.numQubits(), 1000);

    // Jitter the warm start so footprints genuinely collide, like a
    // converged global placement's local overlaps.
    Rng rng(7);
    const double spread = 0.02 * nl.region().width();
    for (Instance &inst : nl.instances()) {
        inst.pos.x = rng.gaussian(inst.pos.x, spread);
        inst.pos.y = rng.gaussian(inst.pos.y, spread);
    }
    nl.clampIntoRegion();

    Trace trace;
    const LegalizeResult result =
        Legalizer().legalize(nl, nullptr, &trace);

    EXPECT_TRUE(result.legal);
    EXPECT_TRUE(Legalizer::isLegal(nl));
    EXPECT_FALSE(result.cancelled);

    // Sub-stage spans must be populated and sane.
    EXPECT_GT(trace.seconds({"spiral"}), 0.0);
    EXPECT_GT(trace.seconds({"tetris"}), 0.0);
    EXPECT_GE(trace.find(Trace::kRoot, "integration"), 0);
}

} // namespace
} // namespace qplacer
