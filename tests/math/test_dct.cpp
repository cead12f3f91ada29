#include <gtest/gtest.h>

#include "oracles/oracles.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

using oracle::Dct;

std::vector<double>
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (auto &x : v)
        x = rng.uniform(-2.0, 2.0);
    return v;
}

class DctSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DctSizes, FastDct2MatchesDirect)
{
    const auto x = randomVector(GetParam(), 10 + GetParam());
    const auto fast = Dct::dct2(x);
    const auto ref = Dct::dct2Direct(x);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
        EXPECT_NEAR(fast[i], ref[i], 1e-8 * (1.0 + std::abs(ref[i])));
}

TEST_P(DctSizes, CosSeriesMatchesDirect)
{
    const auto c = randomVector(GetParam(), 20 + GetParam());
    const auto fast = Dct::cosSeries(c);
    const auto ref = Dct::cosSeriesDirect(c);
    for (std::size_t i = 0; i < fast.size(); ++i)
        EXPECT_NEAR(fast[i], ref[i], 1e-7 * (1.0 + std::abs(ref[i])));
}

TEST_P(DctSizes, SinSeriesMatchesDirect)
{
    const auto c = randomVector(GetParam(), 30 + GetParam());
    const auto fast = Dct::sinSeries(c);
    const auto ref = Dct::sinSeriesDirect(c);
    for (std::size_t i = 0; i < fast.size(); ++i)
        EXPECT_NEAR(fast[i], ref[i], 1e-7 * (1.0 + std::abs(ref[i])));
}

TEST_P(DctSizes, Idct2InvertsDct2)
{
    const auto x = randomVector(GetParam(), 40 + GetParam());
    const auto y = Dct::idct2(Dct::dct2(x));
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y[i], x[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DctSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));

TEST(Dct, ConstantSignalHasOnlyDc)
{
    const std::vector<double> x(16, 3.0);
    const auto X = Dct::dct2(x);
    EXPECT_NEAR(X[0], 48.0, 1e-9); // sum of samples
    for (std::size_t k = 1; k < X.size(); ++k)
        EXPECT_NEAR(X[k], 0.0, 1e-9);
}

TEST(Dct, SinSeriesOfZeroIsZero)
{
    const std::vector<double> c(32, 0.0);
    for (double v : Dct::sinSeries(c))
        EXPECT_EQ(v, 0.0);
}

TEST(Dct, NonPowerOfTwoPanics)
{
    std::vector<double> x(10, 1.0);
    EXPECT_THROW(Dct::dct2(x), std::logic_error);
    EXPECT_THROW(Dct::idct2(x), std::logic_error);
}

} // namespace
} // namespace qplacer
