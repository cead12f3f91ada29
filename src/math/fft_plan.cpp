#include "math/fft_plan.hpp"

#include <cmath>
#include <numbers>

#include "util/logging.hpp"

namespace qplacer {

namespace {

/**
 * The radix-2 butterfly (u, v) -> (u + v*w, u - v*w) across a batch of
 * lines, with the product v*w expanded the way std::complex evaluates
 * it: (vr*wr - vi*wi) + i(vr*wi + vi*wr).
 */
void
butterfly(double *__restrict ur, double *__restrict ui,
          double *__restrict vr, double *__restrict vi,
          FftPlan::Complex w, std::size_t lines)
{
    const double wr = w.real();
    const double wi = w.imag();
    for (std::size_t c = 0; c < lines; ++c) {
        const double tr = vr[c] * wr - vi[c] * wi;
        const double ti = vr[c] * wi + vi[c] * wr;
        const double xr = ur[c];
        const double xi = ui[c];
        ur[c] = xr + tr;
        ui[c] = xi + ti;
        vr[c] = xr - tr;
        vi[c] = xi - ti;
    }
}

} // namespace

FftPlan::FftPlan(std::size_t n) : n_(n)
{
    if (!isPowerOfTwo(n))
        panic(str("FftPlan: length ", n, " is not a power of two"));
    // Bit-reversal permutation, by the naive kernel's incremental
    // reversal of j: slot j receives element i.
    bitReversal_.assign(n, 0);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        bitReversal_[i] = static_cast<std::uint32_t>(j);
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
FftPlan::execute(double *re, double *im, std::size_t lines,
                 std::size_t stride, bool invert) const
{
    const Complex *table =
        invert ? invTwiddle_.data() : fwdTwiddle_.data();
    std::size_t offset = 0;
    for (std::size_t len = 2; len <= n_; len <<= 1) {
        const std::size_t half = len / 2;
        for (std::size_t i = 0; i < n_; i += len) {
            for (std::size_t k = 0; k < half; ++k) {
                const std::size_t a = (i + k) * stride;
                const std::size_t b = (i + k + half) * stride;
                butterfly(re + a, im + a, re + b, im + b,
                          table[offset + k], lines);
            }
        }
        offset += half;
    }
}

} // namespace qplacer
