#include <gtest/gtest.h>

#include "physics/resonator.hpp"

namespace qplacer {
namespace {

TEST(Resonator, LengthMatchesHalfWaveFormula)
{
    // L = v0 / (2 f): 6.5 GHz -> 10 mm exactly with v0 = 1.3e8 m/s.
    EXPECT_NEAR(resonatorLengthUm(6.5e9), 10000.0, 1e-6);
}

TEST(Resonator, PaperBandGivesPaperLengths)
{
    // Section V-C: 6.0-7.0 GHz corresponds to 10.8 down to 9.3 mm.
    EXPECT_NEAR(resonatorLengthUm(6.0e9), 10833.3, 0.1);
    EXPECT_NEAR(resonatorLengthUm(7.0e9), 9285.7, 0.1);
}

TEST(Resonator, FreqAndLengthAreInverses)
{
    for (double f : {6.0e9, 6.5e9, 7.0e9})
        EXPECT_NEAR(resonatorFreqHz(resonatorLengthUm(f)), f, 1.0);
}

TEST(Resonator, AreaIsLengthTimesWireWidth)
{
    ResonatorParams p;
    p.freqHz = 6.5e9;
    EXPECT_NEAR(p.areaUm2(), 10000.0 * kResonatorWireWidthUm, 1e-3);
}

TEST(Resonator, ValidateRejectsBadParams)
{
    ResonatorParams p;
    p.freqHz = -1.0;
    EXPECT_THROW(p.validate(), std::runtime_error);
    EXPECT_THROW(resonatorLengthUm(0.0), std::runtime_error);
    EXPECT_THROW(resonatorFreqHz(-5.0), std::runtime_error);
}

} // namespace
} // namespace qplacer
