#include "math/dct_plan.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

namespace {

using Complex = FftPlan::Complex;

constexpr double kPi = std::numbers::pi;

/** Lines per tile of the batched row/column passes. */
constexpr std::size_t kTileLines = 16;

// The helpers below run across the lines of a tile (index c), line c
// of the map at x[c * ls]. Their complex products expand the way
// std::complex evaluates w * v: (wr*vr - wi*vi) + i(wr*vi + wi*vr).

/** out[c] = x[c*ls]. */
void
gather(double *__restrict out, const double *__restrict x, std::size_t ls,
       std::size_t lines)
{
    for (std::size_t c = 0; c < lines; ++c)
        out[c] = x[c * ls];
}

/** out[c*ls] = (w * (re[c] + i*im[c])).real(). */
void
realOfProduct(double *__restrict out, std::size_t ls, Complex w,
              const double *__restrict re, const double *__restrict im,
              std::size_t lines)
{
    const double wr = w.real();
    const double wi = w.imag();
    for (std::size_t c = 0; c < lines; ++c)
        out[c * ls] = wr * re[c] - wi * im[c];
}

/**
 * (re[c] + i*im[c]) = w * (real[c*ls] - i*imag[c*ls]); a null @p real
 * or @p imag reads as 0.
 */
void
twiddleInto(double *__restrict re, double *__restrict im, Complex w,
            const double *__restrict real, const double *__restrict imag,
            std::size_t ls, std::size_t lines)
{
    const double wr = w.real();
    const double wi = w.imag();
    for (std::size_t c = 0; c < lines; ++c) {
        const double r = real ? real[c * ls] : 0.0;
        const double i = imag ? -imag[c * ls] : 0.0;
        re[c] = wr * r - wi * i;
        im[c] = wr * i + wi * r;
    }
}

/** out[c*ls] = (src[c] * inv_n) * factor, negated if @p negate. */
void
scaleInto(double *__restrict out, std::size_t ls,
          const double *__restrict src, double inv_n, double factor,
          bool negate, std::size_t lines)
{
    if (negate) {
        for (std::size_t c = 0; c < lines; ++c)
            out[c * ls] = -(src[c] * inv_n * factor);
    } else {
        for (std::size_t c = 0; c < lines; ++c)
            out[c * ls] = src[c] * inv_n * factor;
    }
}

} // namespace

void
DctScratch::ensure(int lanes)
{
    if (lanes > DctScratch::lanes())
        lanes_.resize(static_cast<std::size_t>(lanes));
}

DctPlan::DctPlan(std::size_t n) : n_(n), fft_(n)
{
    // (fft_ already rejected non-power-of-two lengths.)
    fwdTwiddle_.resize(n);
    invTwiddle_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double ang = kPi * static_cast<double>(k) /
                           (2.0 * static_cast<double>(n));
        fwdTwiddle_[k] = Complex(std::cos(-ang), std::sin(-ang));
        invTwiddle_[k] = Complex(std::cos(ang), std::sin(ang));
    }
}

void
DctPlan::apply(Kind kind, double *x, DctScratch::Lane &lane) const
{
    transformLines(kind, x, 1, 1, 1, lane);
}

void
DctPlan::transformLines(Kind kind, double *x, std::size_t lines,
                        std::size_t stride, std::size_t line_stride,
                        DctScratch::Lane &lane) const
{
    const std::size_t n = n_;
    const std::size_t half = (n + 1) / 2;
    const std::size_t ls = line_stride;
    lane.re.resize(n * lines);
    lane.im.resize(n * lines);
    // Element k of the lines in x; the FFT workspace packed, lines
    // innermost.
    const auto at = [x, stride](std::size_t k) { return x + k * stride; };
    const auto re = [&lane, lines](std::size_t k) {
        return lane.re.data() + k * lines;
    };
    const auto im = [&lane, lines](std::size_t k) {
        return lane.im.data() + k * lines;
    };
    // Makhoul reordering: FFT element k holds sample 2k for k < half
    // (even samples ascending) and sample 2(n-1-k)+1 above (odd samples
    // descending). FFT input element k goes straight to its
    // bit-reversed slot.
    const auto sample = [n, half](std::size_t k) {
        return k < half ? 2 * k : 2 * (n - 1 - k) + 1;
    };
    const std::uint32_t *slot = fft_.bitReversal().data();

    if (kind == Kind::Dct2) {
        // The reordered samples, as purely real FFT input.
        for (std::size_t k = 0; k < n; ++k)
            gather(re(slot[k]), at(sample(k)), ls, lines);
        std::fill(lane.im.begin(), lane.im.end(), 0.0);
        fft_.execute(re(0), im(0), lines, lines, false);
        for (std::size_t k = 0; k < n; ++k)
            realOfProduct(at(k), ls, fwdTwiddle_[k], re(k), im(k), lines);
        return;
    }

    // The two series: rebuild the complex spectrum
    // P[k] = X[k] - i*X[n-k] (the imaginary part of P[0] is 0), undo
    // the twiddle, invert the FFT, and undo the reordering. SinSeries
    // is the cosine series of the reversed coefficients X'[0] = 0,
    // X'[k] = x[n-k] (since sin(pi*(n+0.5)*k/N) ==
    // (-1)^n cos(pi*(n+0.5)*(N-k)/N)), with alternating output signs.
    // All of x is read before any of it is rewritten.
    const bool flip = kind == Kind::SinSeries;
    twiddleInto(re(0), im(0), invTwiddle_[0], flip ? nullptr : at(0),
                nullptr, ls, lines);
    for (std::size_t k = 1; k < n; ++k) {
        twiddleInto(re(slot[k]), im(slot[k]), invTwiddle_[k],
                    at(flip ? n - k : k), at(flip ? k : n - k), ls, lines);
    }
    fft_.execute(re(0), im(0), lines, lines, true);

    // The FFT's 1/N lands on the real part only, and the series scale
    // it by N (y = N*idct2(c)). Both multiplies stay, as N*(v/N) == v
    // fails for subnormal v.
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t m = sample(k);
        scaleInto(at(m), ls, re(k), inv_n, static_cast<double>(n),
                  flip && m % 2 == 1, lines);
    }
}

void
DctPlan::transformRows(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("DctPlan::transformRows: map size ", map.size(),
                  " != ", nx, "x", ny));
    if (static_cast<std::size_t>(nx) != n_)
        panic(str("DctPlan::transformRows: row length ", nx,
                  " != plan length ", n_));
    scratch.ensure(parallelChunkCount(pool, static_cast<std::size_t>(ny),
                                      ThreadPool::kGrainCoarse));
    parallelForChunks(
        pool, static_cast<std::size_t>(ny),
        [&](int chunk, std::size_t begin, std::size_t end) {
            DctScratch::Lane &lane = scratch.lane(chunk);
            for (std::size_t row = begin; row < end; row += kTileLines)
                transformLines(kind, map.data() + row * n_,
                               std::min(kTileLines, end - row), 1, n_,
                               lane);
        },
        ThreadPool::kGrainCoarse);
}

void
DctPlan::transformCols(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("DctPlan::transformCols: map size ", map.size(),
                  " != ", nx, "x", ny));
    if (static_cast<std::size_t>(ny) != n_)
        panic(str("DctPlan::transformCols: column length ", ny,
                  " != plan length ", n_));
    scratch.ensure(parallelChunkCount(pool, static_cast<std::size_t>(nx),
                                      ThreadPool::kGrainCoarse));
    parallelForChunks(
        pool, static_cast<std::size_t>(nx),
        [&](int chunk, std::size_t begin, std::size_t end) {
            DctScratch::Lane &lane = scratch.lane(chunk);
            for (std::size_t col = begin; col < end; col += kTileLines)
                transformLines(kind, map.data() + col,
                               std::min(kTileLines, end - col),
                               static_cast<std::size_t>(nx), 1, lane);
        },
        ThreadPool::kGrainCoarse);
}

} // namespace qplacer
