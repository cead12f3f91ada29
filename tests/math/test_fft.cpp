#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "math/fft_plan.hpp"
#include "oracles/oracles.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

using oracle::Fft;
using Complex = Fft::Complex;

TEST(Fft, PowerOfTwoDetection)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(96));
}

TEST(Fft, ForwardMatchesDirectDft)
{
    Rng rng(1);
    const std::size_t n = 32;
    std::vector<Complex> x(n);
    for (auto &v : x)
        v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));

    std::vector<Complex> ref(n);
    for (std::size_t k = 0; k < n; ++k) {
        Complex acc(0, 0);
        for (std::size_t m = 0; m < n; ++m) {
            const double ang = -2.0 * std::numbers::pi *
                               static_cast<double>(k * m) /
                               static_cast<double>(n);
            acc += x[m] * Complex(std::cos(ang), std::sin(ang));
        }
        ref[k] = acc;
    }

    std::vector<Complex> fast = x;
    Fft::forward(fast);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(fast[k].real(), ref[k].real(), 1e-9);
        EXPECT_NEAR(fast[k].imag(), ref[k].imag(), 1e-9);
    }
}

TEST(Fft, InverseRoundTrip)
{
    Rng rng(2);
    for (std::size_t n : {1u, 2u, 8u, 128u}) {
        std::vector<Complex> x(n);
        for (auto &v : x)
            v = Complex(rng.uniform(-5, 5), rng.uniform(-5, 5));
        std::vector<Complex> y = x;
        Fft::forward(y);
        Fft::inverse(y);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
            EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
        }
    }
}

TEST(Fft, DeltaHasFlatSpectrum)
{
    std::vector<Complex> x(16, Complex(0, 0));
    x[0] = Complex(1, 0);
    Fft::forward(x);
    for (const auto &v : x) {
        EXPECT_NEAR(v.real(), 1.0, 1e-12);
        EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, SingleToneLandsInOneBin)
{
    const std::size_t n = 64;
    const std::size_t tone = 5;
    std::vector<Complex> x(n);
    for (std::size_t m = 0; m < n; ++m) {
        const double ang = 2.0 * std::numbers::pi *
                           static_cast<double>(tone * m) /
                           static_cast<double>(n);
        x[m] = Complex(std::cos(ang), std::sin(ang));
    }
    Fft::forward(x);
    for (std::size_t k = 0; k < n; ++k) {
        const double expected = (k == tone) ? static_cast<double>(n) : 0.0;
        EXPECT_NEAR(std::abs(x[k]), expected, 1e-8);
    }
}

TEST(Fft, NonPowerOfTwoPanics)
{
    std::vector<Complex> x(12);
    EXPECT_THROW(Fft::forward(x), std::logic_error);
}

} // namespace
} // namespace qplacer
