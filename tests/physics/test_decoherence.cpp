#include <gtest/gtest.h>

#include <cmath>

#include "physics/decoherence.hpp"

namespace qplacer {
namespace {

TEST(Decoherence, ZeroDurationZeroError)
{
    const DecoherenceModel m;
    EXPECT_DOUBLE_EQ(m.errorOver(0.0), 0.0);
}

TEST(Decoherence, MonotoneInDuration)
{
    const DecoherenceModel m;
    double prev = 0.0;
    for (double t = 1e-6; t <= 1e-3; t *= 2.0) {
        const double e = m.errorOver(t);
        EXPECT_GT(e, prev);
        EXPECT_LE(e, 1.0);
        prev = e;
    }
}

TEST(Decoherence, MatchesClosedForm)
{
    const DecoherenceModel m(100e-6, 80e-6);
    const double rate = 1.0 / (2 * 100e-6) + 1.0 / (2 * 80e-6);
    const double t = 5e-6;
    EXPECT_NEAR(m.errorOver(t), 1.0 - std::exp(-t * rate), 1e-12);
}

TEST(Decoherence, LongerCoherenceLowersError)
{
    const DecoherenceModel good(200e-6, 150e-6);
    const DecoherenceModel bad(20e-6, 15e-6);
    EXPECT_LT(good.errorOver(1e-5), bad.errorOver(1e-5));
}

TEST(Decoherence, InvalidParamsFatal)
{
    EXPECT_THROW(DecoherenceModel(0.0, 1e-6), std::runtime_error);
    EXPECT_THROW(DecoherenceModel(1e-6, -1.0), std::runtime_error);
}

TEST(Decoherence, NegativeDurationPanics)
{
    const DecoherenceModel m;
    EXPECT_THROW(m.errorOver(-1.0), std::logic_error);
}

} // namespace
} // namespace qplacer
