#include "math/dct_plan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

namespace {

using Complex = FftPlan::Complex;

constexpr double kPi = std::numbers::pi;

/** Lines per tile of the batched row/column passes. */
constexpr std::size_t kTileLines = 16;

// The helpers below run across the lines of a tile (index c). Their
// complex products expand the way std::complex evaluates w * v:
// (wr*vr - wi*vi) + i(wr*vi + wi*vr).

/** out[c] = (w * (re[c] + i*im[c])).real(). */
void
realOfProduct(double *__restrict out, Complex w,
              const double *__restrict re, const double *__restrict im,
              std::size_t lines)
{
    const double wr = w.real();
    const double wi = w.imag();
    for (std::size_t c = 0; c < lines; ++c)
        out[c] = wr * re[c] - wi * im[c];
}

/** (re[c] + i*im[c]) = w * (re[c] + i*im[c]). */
void
multiplyInPlace(double *__restrict re, double *__restrict im, Complex w,
                std::size_t lines)
{
    const double wr = w.real();
    const double wi = w.imag();
    for (std::size_t c = 0; c < lines; ++c) {
        const double r = re[c];
        const double i = im[c];
        re[c] = wr * r - wi * i;
        im[c] = wr * i + wi * r;
    }
}

/** out[c] = src[c] * factor, negated if @p negate. */
void
scaleInto(double *__restrict out, const double *__restrict src,
          double factor, bool negate, std::size_t lines)
{
    if (negate) {
        for (std::size_t c = 0; c < lines; ++c)
            out[c] = -(src[c] * factor);
    } else {
        for (std::size_t c = 0; c < lines; ++c)
            out[c] = src[c] * factor;
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
    transformLines(kind, x, 1, 1, lane);
}

void
DctPlan::transformLines(Kind kind, double *x, std::size_t lines,
                        std::size_t stride, DctScratch::Lane &lane) const
{
    const std::size_t n = n_;
    const std::size_t half = (n + 1) / 2;
    lane.re.resize(n * lines);
    lane.im.resize(n * lines);
    // Element k of the tile: x at stride, the FFT workspace packed.
    const auto at = [x, stride](std::size_t k) { return x + k * stride; };
    const auto re = [&lane, lines](std::size_t k) {
        return lane.re.data() + k * lines;
    };
    const auto im = [&lane, lines](std::size_t k) {
        return lane.im.data() + k * lines;
    };
    // Makhoul reordering: FFT element k holds sample 2k for k < half
    // (even samples ascending) and sample 2(n-1-k)+1 above (odd samples
    // descending).
    const auto sample = [n, half](std::size_t k) {
        return k < half ? 2 * k : 2 * (n - 1 - k) + 1;
    };

    if (kind == Kind::Dct2) {
        // The reordered samples, as purely real FFT input.
        for (std::size_t k = 0; k < n; ++k) {
            std::copy_n(at(sample(k)), lines, re(k));
            std::fill_n(im(k), lines, 0.0);
        }
        fft_.execute(re(0), im(0), lines, lines, false);
        for (std::size_t k = 0; k < n; ++k)
            realOfProduct(at(k), fwdTwiddle_[k], re(k), im(k), lines);
        return;
    }

    // Idct2 and the two series: rebuild the complex spectrum
    // P[k] = X[k] - i*X[n-k] (the imaginary part of P[0] is 0), undo
    // the twiddle, invert the FFT, and undo the reordering. SinSeries
    // is the cosine series of the reversed coefficients X'[0] = 0,
    // X'[k] = x[n-k] (since sin(pi*(n+0.5)*k/N) ==
    // (-1)^n cos(pi*(n+0.5)*(N-k)/N)), with alternating output signs.
    // All of x is read before any of it is rewritten.
    const bool flip = kind == Kind::SinSeries;
    for (std::size_t k = 0; k < n; ++k) {
        if (k == 0) {
            if (flip)
                std::fill_n(re(0), lines, 0.0);
            else
                std::copy_n(at(0), lines, re(0));
            std::fill_n(im(0), lines, 0.0);
        } else {
            const double *real = at(flip ? n - k : k);
            const double *imag = at(flip ? k : n - k);
            std::copy_n(real, lines, re(k));
            std::transform(imag, imag + lines, im(k), std::negate<>());
        }
        multiplyInPlace(re(k), im(k), invTwiddle_[k], lines);
    }
    fft_.execute(re(0), im(0), lines, lines, true);

    // Idct2 keeps v.real(); the series scale it by N (y = N*idct2(c)).
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t m = sample(k);
        if (kind == Kind::Idct2)
            std::copy_n(re(k), lines, at(m));
        else
            scaleInto(at(m), re(k), static_cast<double>(n),
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
            lane.tile.resize(n_ * kTileLines);
            double *tile = lane.tile.data();
            for (std::size_t row = begin; row < end; row += kTileLines) {
                const std::size_t lines = std::min(kTileLines, end - row);
                double *rows = map.data() + row * n_;
                for (std::size_t c = 0; c < lines; ++c)
                    for (std::size_t k = 0; k < n_; ++k)
                        tile[k * lines + c] = rows[c * n_ + k];
                transformLines(kind, tile, lines, lines, lane);
                for (std::size_t c = 0; c < lines; ++c)
                    for (std::size_t k = 0; k < n_; ++k)
                        rows[c * n_ + k] = tile[k * lines + c];
            }
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
                               static_cast<std::size_t>(nx), lane);
        },
        ThreadPool::kGrainCoarse);
}

} // namespace qplacer
