#include <cmath>
#include <numbers>

#include "oracles/oracles.hpp"
#include "util/logging.hpp"

namespace qplacer::oracle {

void
Fft::transform(std::vector<Complex> &data, bool invert)
{
    const std::size_t n = data.size();
    if (!isPowerOfTwo(n))
        panic(str("Fft: length ", n, " is not a power of two"));
    if (n == 1)
        return;

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang =
            2.0 * std::numbers::pi / static_cast<double>(len) *
            (invert ? 1.0 : -1.0);
        const Complex wlen(std::cos(ang), std::sin(ang));
        for (std::size_t i = 0; i < n; i += len) {
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const Complex u = data[i + k];
                const Complex v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }

    if (invert) {
        const double inv_n = 1.0 / static_cast<double>(n);
        for (auto &x : data)
            x *= inv_n;
    }
}

void
Fft::forward(std::vector<Complex> &data)
{
    transform(data, false);
}

void
Fft::inverse(std::vector<Complex> &data)
{
    transform(data, true);
}

} // namespace qplacer::oracle
