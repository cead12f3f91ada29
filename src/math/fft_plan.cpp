#include "math/fft_plan.hpp"

#include <cmath>
#include <numbers>

#include "util/logging.hpp"

namespace qplacer {

FftPlan::FftPlan(std::size_t n) : n_(n)
{
    if (!isPowerOfTwo(n))
        panic(str("FftPlan: length ", n, " is not a power of two"));
    if (n == 1)
        return;

    // Bit-reversal permutation, recorded as the (i < j) swap pairs the
    // naive kernel performs. Swaps are independent, so replaying them
    // in any order reproduces the permutation exactly.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j) {
            swapLo_.push_back(static_cast<std::uint32_t>(i));
            swapHi_.push_back(static_cast<std::uint32_t>(j));
        }
    }

    // Stage twiddles. The plan-free kernel restarts w at (1, 0) for
    // every block of a stage and advances it with w *= wlen, so one
    // table of len/2 entries per stage, generated by the identical
    // recurrence, reproduces every w it ever computes bit for bit.
    fwdTwiddle_.reserve(n - 1);
    invTwiddle_.reserve(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        for (const bool invert : {false, true}) {
            const double ang = 2.0 * std::numbers::pi /
                               static_cast<double>(len) *
                               (invert ? 1.0 : -1.0);
            const Complex wlen(std::cos(ang), std::sin(ang));
            Complex w(1.0, 0.0);
            std::vector<Complex> &table =
                invert ? invTwiddle_ : fwdTwiddle_;
            for (std::size_t k = 0; k < len / 2; ++k) {
                table.push_back(w);
                w *= wlen;
            }
        }
    }
}

void
FftPlan::execute(Complex *data, bool invert) const
{
    if (n_ == 1)
        return;

    for (std::size_t s = 0; s < swapLo_.size(); ++s)
        std::swap(data[swapLo_[s]], data[swapHi_[s]]);

    const Complex *table =
        invert ? invTwiddle_.data() : fwdTwiddle_.data();
    std::size_t offset = 0;
    for (std::size_t len = 2; len <= n_; len <<= 1) {
        const std::size_t half = len / 2;
        for (std::size_t i = 0; i < n_; i += len) {
            for (std::size_t k = 0; k < half; ++k) {
                const Complex u = data[i + k];
                const Complex v = data[i + k + half] * table[offset + k];
                data[i + k] = u + v;
                data[i + k + half] = u - v;
            }
        }
        offset += half;
    }

    if (invert) {
        const double inv_n = 1.0 / static_cast<double>(n_);
        for (std::size_t i = 0; i < n_; ++i)
            data[i] *= inv_n;
    }
}

} // namespace qplacer
