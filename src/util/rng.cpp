#include "util/rng.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace qplacer {

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : hasSpare_(false), spare_(0.0)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::below(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    std::uint64_t v = next();
    while (v >= limit)
        v = next();
    return v % n;
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    if (hi < lo)
        panic(str("Rng::range: hi < lo (", hi, " < ", lo, ")"));
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

double
Rng::gaussian()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    hasSpare_ = true;
    return u * factor;
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

} // namespace qplacer
