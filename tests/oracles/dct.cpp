#include <cmath>
#include <numbers>

#include "oracles/oracles.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer::oracle {

namespace {

using Complex = Fft::Complex;

constexpr double kPi = std::numbers::pi;

} // namespace

std::vector<double>
Dct::dct2(const std::vector<double> &x)
{
    const std::size_t n = x.size();
    if (!isPowerOfTwo(n))
        panic(str("Dct::dct2: length ", n, " is not a power of two"));

    // Makhoul reordering: even samples ascending, odd samples descending.
    std::vector<Complex> v(n);
    const std::size_t half = (n + 1) / 2;
    for (std::size_t m = 0; m < half; ++m)
        v[m] = Complex(x[2 * m], 0.0);
    for (std::size_t m = 0; 2 * m + 1 < n; ++m)
        v[n - 1 - m] = Complex(x[2 * m + 1], 0.0);

    Fft::forward(v);

    std::vector<double> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double ang = -kPi * static_cast<double>(k) /
                           (2.0 * static_cast<double>(n));
        const Complex tw(std::cos(ang), std::sin(ang));
        out[k] = (tw * v[k]).real();
    }
    return out;
}

std::vector<double>
Dct::idct2(const std::vector<double> &X)
{
    const std::size_t n = X.size();
    if (!isPowerOfTwo(n))
        panic(str("Dct::idct2: length ", n, " is not a power of two"));

    // Reconstruct the complex spectrum P[k] = X[k] - i*X[n-k]
    // (derived from the Hermitian symmetry of the Makhoul spectrum),
    // undo the twiddle, invert the FFT, and undo the reordering.
    std::vector<Complex> v(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double re = X[k];
        const double im = (k == 0) ? 0.0 : -X[n - k];
        const double ang = kPi * static_cast<double>(k) /
                           (2.0 * static_cast<double>(n));
        // tw * (re + i*im) in real arithmetic, rounded as the complex
        // product rounds on a target without FMA. The real part is a sum
        // with a negated product (x - y is x + -y exactly): GCC's SLP
        // vectorizer fuses a subtract/add lane pair of products into one
        // vfmaddsub even under -ffp-contract=off, and two adds it leaves
        // unfused.
        const double c = std::cos(ang);
        const double s = std::sin(ang);
        v[k] = Complex(c * re + -s * im, c * im + s * re);
    }

    Fft::inverse(v);

    std::vector<double> x(n);
    const std::size_t half = (n + 1) / 2;
    for (std::size_t m = 0; m < half; ++m)
        x[2 * m] = v[m].real();
    for (std::size_t m = 0; 2 * m + 1 < n; ++m)
        x[2 * m + 1] = v[n - 1 - m].real();
    return x;
}

std::vector<double>
Dct::cosSeries(const std::vector<double> &c)
{
    // y[n] = c[0] + 2*sum_{k>=1} c[k] cos(...) == N * idct2(c).
    const auto n = static_cast<double>(c.size());
    std::vector<double> y = idct2(c);
    for (auto &v : y)
        v *= n;
    return y;
}

std::vector<double>
Dct::sinSeries(const std::vector<double> &c)
{
    // sin(pi*(n+0.5)*k/N) == (-1)^n cos(pi*(n+0.5)*(N-k)/N), so the sine
    // series is a cosine series with reversed coefficients and an
    // alternating sign.
    const std::size_t n = c.size();
    std::vector<double> flipped(n, 0.0);
    for (std::size_t k = 1; k < n; ++k)
        flipped[k] = c[n - k];
    std::vector<double> y = cosSeries(flipped);
    for (std::size_t i = 1; i < n; i += 2)
        y[i] = -y[i];
    return y;
}

std::vector<double>
Dct::apply(Kind kind, const std::vector<double> &x)
{
    switch (kind) {
      case Kind::Dct2:
        return dct2(x);
      case Kind::CosSeries:
        return cosSeries(x);
      case Kind::SinSeries:
        return sinSeries(x);
    }
    panic("Dct::apply: bad kind");
}

std::vector<double>
Dct::dct2Direct(const std::vector<double> &x)
{
    const std::size_t n = x.size();
    std::vector<double> out(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
        double acc = 0.0;
        for (std::size_t m = 0; m < n; ++m) {
            acc += x[m] * std::cos(kPi * (static_cast<double>(m) + 0.5) *
                                   static_cast<double>(k) /
                                   static_cast<double>(n));
        }
        out[k] = acc;
    }
    return out;
}

std::vector<double>
Dct::cosSeriesDirect(const std::vector<double> &c)
{
    const std::size_t n = c.size();
    std::vector<double> out(n, 0.0);
    for (std::size_t m = 0; m < n; ++m) {
        double acc = c[0];
        for (std::size_t k = 1; k < n; ++k) {
            acc += 2.0 * c[k] *
                   std::cos(kPi * (static_cast<double>(m) + 0.5) *
                            static_cast<double>(k) / static_cast<double>(n));
        }
        out[m] = acc;
    }
    return out;
}

std::vector<double>
Dct::sinSeriesDirect(const std::vector<double> &c)
{
    const std::size_t n = c.size();
    std::vector<double> out(n, 0.0);
    for (std::size_t m = 0; m < n; ++m) {
        double acc = 0.0;
        for (std::size_t k = 1; k < n; ++k) {
            acc += 2.0 * c[k] *
                   std::sin(kPi * (static_cast<double>(m) + 0.5) *
                            static_cast<double>(k) / static_cast<double>(n));
        }
        out[m] = acc;
    }
    return out;
}


void
transformRowsUnplanned(std::vector<double> &map, int nx, int ny,
                       Dct::Kind kind, ThreadPool *pool)
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("transformRowsUnplanned: map size ", map.size(),
                  " != ", nx, "x", ny));
    parallelFor(
        pool, static_cast<std::size_t>(ny),
        [&](std::size_t begin, std::size_t end) {
            std::vector<double> row(static_cast<std::size_t>(nx));
            for (std::size_t iy = begin; iy < end; ++iy) {
                double *base = map.data() + iy * nx;
                row.assign(base, base + nx);
                const std::vector<double> out = Dct::apply(kind, row);
                for (int ix = 0; ix < nx; ++ix)
                    base[ix] = out[ix];
            }
        },
        ThreadPool::kGrainCoarse);
}

void
transformColsUnplanned(std::vector<double> &map, int nx, int ny,
                       Dct::Kind kind, ThreadPool *pool)
{
    if (map.size() != static_cast<std::size_t>(nx) * ny)
        panic(str("transformColsUnplanned: map size ", map.size(),
                  " != ", nx, "x", ny));
    parallelFor(
        pool, static_cast<std::size_t>(nx),
        [&](std::size_t begin, std::size_t end) {
            std::vector<double> col(static_cast<std::size_t>(ny));
            for (std::size_t ix = begin; ix < end; ++ix) {
                for (int iy = 0; iy < ny; ++iy)
                    col[iy] =
                        map[static_cast<std::size_t>(iy) * nx + ix];
                const std::vector<double> out = Dct::apply(kind, col);
                for (int iy = 0; iy < ny; ++iy)
                    map[static_cast<std::size_t>(iy) * nx + ix] =
                        out[iy];
            }
        },
        ThreadPool::kGrainCoarse);
}

} // namespace qplacer::oracle
