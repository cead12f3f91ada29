#include <gtest/gtest.h>

#include <cmath>

#include "physics/capacitance.hpp"
#include "physics/constants.hpp"
#include "physics/coupling.hpp"

namespace qplacer {
namespace {

TEST(Coupling, Eq6Formula)
{
    // g = 0.5 sqrt(f1 f2) Cp / sqrt((C1+Cp)(C2+Cp))
    const double g = couplingStrength(5e9, 5e9, 1.0, 65.0, 65.0);
    EXPECT_NEAR(g, 0.5 * 5e9 * 1.0 / 66.0, 1e3);
}

TEST(Coupling, GrowsWithParasiticCapacitance)
{
    const double g1 = couplingStrength(5e9, 5e9, 0.5, 65.0, 65.0);
    const double g2 = couplingStrength(5e9, 5e9, 2.0, 65.0, 65.0);
    EXPECT_GT(g2, g1);
}

TEST(Coupling, ConnectedQubitScaleIsTensOfMHz)
{
    // Fig. 4: designed couplings are ~20-30 MHz; a ~1 fF coupler between
    // transmons gives that order of magnitude.
    const double g =
        couplingStrength(5e9, 5e9, 1.0, kQubitCapFf, kQubitCapFf);
    EXPECT_GT(g, 10e6);
    EXPECT_LT(g, 100e6);
}

TEST(Coupling, RabiAmplitudePeaksAtResonance)
{
    // Fig. 4's shape: maximum exchange at Delta = 0, decaying with
    // detuning.
    const double g = 5e6;
    EXPECT_DOUBLE_EQ(rabiAmplitude(g, 0.0), 1.0);
    double prev = 1.0;
    for (double delta = 1e6; delta <= 200e6; delta *= 2.0) {
        const double a = rabiAmplitude(g, delta);
        EXPECT_LT(a, prev);
        prev = a;
    }
    EXPECT_LT(rabiAmplitude(g, 100e6), 0.02);
}

TEST(Coupling, RabiTransitionBounds)
{
    for (double t : {1e-9, 1e-7, 1e-6, 1e-5}) {
        for (double delta : {0.0, 1e6, 50e6}) {
            const double p = rabiTransitionProb(2e6, delta, t);
            EXPECT_GE(p, 0.0);
            EXPECT_LE(p, 1.0);
        }
    }
}

TEST(Coupling, TransitionProbOscillates)
{
    const double g = 1e6; // full Rabi period = 1 us
    EXPECT_NEAR(rabiTransitionProb(g, 0.0, 0.25e-6), 1.0, 1e-9);
    EXPECT_NEAR(rabiTransitionProb(g, 0.0, 0.5e-6), 0.0, 1e-9);
}

TEST(Coupling, WorstCaseIsEnvelope)
{
    const double g = 1e6;
    // Past the first Rabi peak the worst case is the full amplitude.
    EXPECT_DOUBLE_EQ(worstCaseTransition(g, 0.0, 1e-6), 1.0);
    // Before the peak it matches the instantaneous probability.
    EXPECT_NEAR(worstCaseTransition(g, 0.0, 0.05e-6),
                rabiTransitionProb(g, 0.0, 0.05e-6), 1e-12);
    // Monotone in t.
    EXPECT_LE(worstCaseTransition(g, 50e6, 1e-8),
              worstCaseTransition(g, 50e6, 1e-5));
}

TEST(Coupling, DistanceChainBehavesLikeFig5)
{
    // Composing the capacitance model with Eq. 6: resonant coupling at
    // padded adjacency (~800 um centers) is strong enough to matter on
    // program time scales, two pitches out it is far weaker.
    const CapacitanceModel cp = CapacitanceModel::qubitQubit();
    const double g_adjacent = couplingStrength(
        5e9, 5e9, cp.cp(800.0), kQubitCapFf, kQubitCapFf);
    const double g_far = couplingStrength(5e9, 5e9, cp.cp(2400.0),
                                          kQubitCapFf, kQubitCapFf);
    EXPECT_GT(g_adjacent, 0.5e6);
    EXPECT_LT(g_far, 0.05e6);
}

TEST(Coupling, InvalidInputsPanic)
{
    EXPECT_THROW(couplingStrength(-1.0, 5e9, 1.0, 65.0, 65.0),
                 std::logic_error);
    EXPECT_THROW(couplingStrength(5e9, 5e9, -1.0, 65.0, 65.0),
                 std::logic_error);
    EXPECT_THROW(rabiTransitionProb(1e6, 0.0, -1.0), std::logic_error);
}

} // namespace
} // namespace qplacer
