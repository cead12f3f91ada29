#include "math/dct_plan.hpp"

#include <cmath>
#include <numbers>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

namespace {

using Complex = FftPlan::Complex;

constexpr double kPi = std::numbers::pi;

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
DctPlan::dct2(double *x, DctScratch::Lane &lane) const
{
    const std::size_t n = n_;
    std::vector<Complex> &v = lane.spectrum;
    v.resize(n);

    // Makhoul reordering: even samples ascending, odd samples
    // descending (every element of v is written).
    const std::size_t half = (n + 1) / 2;
    for (std::size_t m = 0; m < half; ++m)
        v[m] = Complex(x[2 * m], 0.0);
    for (std::size_t m = 0; 2 * m + 1 < n; ++m)
        v[n - 1 - m] = Complex(x[2 * m + 1], 0.0);

    fft_.forward(v.data());

    for (std::size_t k = 0; k < n; ++k)
        x[k] = (fwdTwiddle_[k] * v[k]).real();
}

void
DctPlan::idct2(double *x, DctScratch::Lane &lane) const
{
    const std::size_t n = n_;
    std::vector<Complex> &v = lane.spectrum;
    v.resize(n);

    // Reconstruct the complex spectrum P[k] = X[k] - i*X[n-k], undo
    // the twiddle, invert the FFT, and undo the reordering. All of x
    // is read before any of it is rewritten below.
    for (std::size_t k = 0; k < n; ++k) {
        const double re = x[k];
        const double im = (k == 0) ? 0.0 : -x[n - k];
        v[k] = invTwiddle_[k] * Complex(re, im);
    }

    fft_.inverse(v.data());

    const std::size_t half = (n + 1) / 2;
    for (std::size_t m = 0; m < half; ++m)
        x[2 * m] = v[m].real();
    for (std::size_t m = 0; 2 * m + 1 < n; ++m)
        x[2 * m + 1] = v[n - 1 - m].real();
}

void
DctPlan::cosSeries(double *x, DctScratch::Lane &lane) const
{
    // y[n] = c[0] + 2*sum_{k>=1} c[k] cos(...) == N * idct2(c).
    const double scale = static_cast<double>(n_);
    idct2(x, lane);
    for (std::size_t i = 0; i < n_; ++i)
        x[i] *= scale;
}

void
DctPlan::sinSeries(double *x, DctScratch::Lane &lane) const
{
    // sin(pi*(n+0.5)*k/N) == (-1)^n cos(pi*(n+0.5)*(N-k)/N): a cosine
    // series with reversed coefficients and an alternating sign.
    const std::size_t n = n_;
    std::vector<double> &flipped = lane.flip;
    flipped.resize(n);
    flipped[0] = 0.0;
    for (std::size_t k = 1; k < n; ++k)
        flipped[k] = x[n - k];
    cosSeries(flipped.data(), lane);
    x[0] = flipped[0];
    for (std::size_t i = 1; i < n; ++i)
        x[i] = (i % 2 == 1) ? -flipped[i] : flipped[i];
}

void
DctPlan::apply(Kind kind, double *x, DctScratch::Lane &lane) const
{
    switch (kind) {
      case Kind::Dct2:
        return dct2(x, lane);
      case Kind::Idct2:
        return idct2(x, lane);
      case Kind::CosSeries:
        return cosSeries(x, lane);
      case Kind::SinSeries:
        return sinSeries(x, lane);
    }
    panic("DctPlan::apply: bad kind");
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
            for (std::size_t iy = begin; iy < end; ++iy)
                apply(kind, map.data() + iy * nx, lane);
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
            std::vector<double> &line = lane.line;
            line.resize(static_cast<std::size_t>(ny));
            for (std::size_t ix = begin; ix < end; ++ix) {
                for (int iy = 0; iy < ny; ++iy)
                    line[static_cast<std::size_t>(iy)] =
                        map[static_cast<std::size_t>(iy) * nx + ix];
                apply(kind, line.data(), lane);
                for (int iy = 0; iy < ny; ++iy)
                    map[static_cast<std::size_t>(iy) * nx + ix] =
                        line[static_cast<std::size_t>(iy)];
            }
        },
        ThreadPool::kGrainCoarse);
}

} // namespace qplacer
