/**
 * @file
 * Process-wide cache of spectral transform plans.
 *
 * Plan construction costs O(N) transcendental evaluations; the solver
 * grids that need them (one per bin-count in use) are few. The cache
 * hands out shared, immutable plans keyed by length — one DctPlan per
 * length covers all four DCT/DST kernels, since they share the FFT
 * tables and differ only in pre/post twiddles that the plan also
 * precomputes.
 *
 * Lookup takes a mutex, so hot paths should fetch their plans once
 * (e.g. PoissonSolver grabs both of its plans at construction) rather
 * than per solve. Cached plans live for the process lifetime; a plan
 * is a few N-entry tables, so even a sweep over every power of two up
 * to 4096 stays under a megabyte.
 */

#ifndef QPLACER_MATH_PLAN_CACHE_HPP
#define QPLACER_MATH_PLAN_CACHE_HPP

#include <cstddef>
#include <memory>

#include "math/dct_plan.hpp"

namespace qplacer {

/** Shared-plan factory (thread-safe). */
class PlanCache
{
  public:
    /** The DCT/DST plan for length @p n (built on first request). */
    static std::shared_ptr<const DctPlan> dct(std::size_t n);

    /** Number of distinct plans currently cached (for tests/stats). */
    static std::size_t size();
};

} // namespace qplacer

#endif // QPLACER_MATH_PLAN_CACHE_HPP
