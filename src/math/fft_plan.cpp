#include "math/fft_plan.hpp"

#include <cmath>
#include <numbers>

#include "util/logging.hpp"

namespace qplacer {

namespace {

/**
 * One radix-2 butterfly (u, v) -> (u + v*w, u - v*w), with the product
 * v*w expanded the way std::complex evaluates it:
 * (vr*wr - vi*wi) + i(vr*wi + vi*wr).
 */
inline void
butterfly(double &ur, double &ui, double &vr, double &vi, double wr,
          double wi)
{
    const double tr = vr * wr - vi * wi;
    const double ti = vr * wi + vi * wr;
    const double xr = ur;
    const double xi = ui;
    ur = xr + tr;
    ui = xi + ti;
    vr = xr - tr;
    vi = xi - ti;
}

/** butterfly() with twiddle @p w across a batch of lines. */
void
butterflyLines(double *__restrict ur, double *__restrict ui,
               double *__restrict vr, double *__restrict vi,
               FftPlan::Complex w, std::size_t lines)
{
    const double wr = w.real();
    const double wi = w.imag();
    for (std::size_t c = 0; c < lines; ++c)
        butterfly(ur[c], ui[c], vr[c], vi[c], wr, wi);
}

/**
 * Two consecutive stages (len, 2*len) on one group of rows
 * {p, p+h, p+len, p+len+h} (h = len/2) across a batch of lines: the
 * stage-len butterflies (0, 1) and (2, 3) with @p w1, then the
 * stage-2len butterflies (0, 2) with @p w2a and (1, 3) with @p w2b.
 * Each element sees the operations the two separate stage sweeps
 * apply, in the same order, while it stays in registers.
 */
void
butterflyPairLines(double *__restrict r0, double *__restrict i0,
                   double *__restrict r1, double *__restrict i1,
                   double *__restrict r2, double *__restrict i2,
                   double *__restrict r3, double *__restrict i3,
                   FftPlan::Complex w1, FftPlan::Complex w2a,
                   FftPlan::Complex w2b, std::size_t lines)
{
    const double w1r = w1.real();
    const double w1i = w1.imag();
    const double w2ar = w2a.real();
    const double w2ai = w2a.imag();
    const double w2br = w2b.real();
    const double w2bi = w2b.imag();
    for (std::size_t c = 0; c < lines; ++c) {
        double a0r = r0[c], a0i = i0[c], a1r = r1[c], a1i = i1[c];
        double a2r = r2[c], a2i = i2[c], a3r = r3[c], a3i = i3[c];
        butterfly(a0r, a0i, a1r, a1i, w1r, w1i);
        butterfly(a2r, a2i, a3r, a3i, w1r, w1i);
        butterfly(a0r, a0i, a2r, a2i, w2ar, w2ai);
        butterfly(a1r, a1i, a3r, a3i, w2br, w2bi);
        r0[c] = a0r;
        i0[c] = a0i;
        r1[c] = a1r;
        i1[c] = a1i;
        r2[c] = a2r;
        i2[c] = a2i;
        r3[c] = a3r;
        i3[c] = a3i;
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
    // Stage len's twiddles start at offset len/2 - 1 of the table.
    const Complex *table =
        invert ? invTwiddle_.data() : fwdTwiddle_.data();
    std::size_t len = 2;
    for (; 2 * len <= n_; len <<= 2) {
        const std::size_t h = len / 2;
        const Complex *t1 = table + (h - 1);
        const Complex *t2 = table + (len - 1);
        for (std::size_t i = 0; i < n_; i += 2 * len) {
            for (std::size_t k = 0; k < h; ++k) {
                const std::size_t a = (i + k) * stride;
                const std::size_t b = a + h * stride;
                const std::size_t c = a + len * stride;
                const std::size_t d = c + h * stride;
                butterflyPairLines(re + a, im + a, re + b, im + b,
                                   re + c, im + c, re + d, im + d, t1[k],
                                   t2[k], t2[k + h], lines);
            }
        }
    }
    if (len == n_) {
        // An odd stage count leaves the last stage (len = n) on its own.
        const std::size_t h = len / 2;
        const Complex *t = table + (h - 1);
        for (std::size_t k = 0; k < h; ++k) {
            const std::size_t a = k * stride;
            const std::size_t b = a + h * stride;
            butterflyLines(re + a, im + a, re + b, im + b, t[k], lines);
        }
    }
}

} // namespace qplacer
