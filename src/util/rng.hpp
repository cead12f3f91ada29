/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic choices in the library (initial placement jitter, subset
 * sampling, tie-breaking) flow through Rng so runs are reproducible from a
 * single seed.
 */

#ifndef QPLACER_UTIL_RNG_HPP
#define QPLACER_UTIL_RNG_HPP

#include <cstdint>

namespace qplacer {

/**
 * Deterministic RNG built on xoshiro256**. We implement the generator
 * ourselves (rather than std::mt19937) so the stream is identical across
 * standard libraries, which keeps golden test values portable.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller. */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

  private:
    std::uint64_t s_[4];
    bool hasSpare_;
    double spare_;
};

} // namespace qplacer

#endif // QPLACER_UTIL_RNG_HPP
