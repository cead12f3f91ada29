/**
 * @file
 * Nesterov accelerated gradient with Barzilai-Borwein step estimation,
 * the optimizer of the ePlace family the engine is built on.
 */

#ifndef QPLACER_CORE_NESTEROV_HPP
#define QPLACER_CORE_NESTEROV_HPP

#include <functional>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"

namespace qplacer {

class ThreadPool;

/**
 * max(0, max_i ‖gradient[i]‖), each norm by std::hypot, NaN norms
 * skipped: the value of a std::max scan over every hypot, bit for bit.
 * hypot is a libm call, so it is taken only on the candidates, the
 * entries whose normSq is within a relative 1e-9 of the largest one,
 * m2. The filter is exact while m2 lies in (1e-280, 1e280): no normSq
 * has overflowed, and its rounding error, subnormal terms included, is
 * far below 1e-9 of m2. Outside that range (0, subnormal, inf), or when
 * some normSq is NaN (hypot(inf, NaN) is inf), every entry is scanned.
 */
double largestNorm(const std::vector<Vec2> &gradient);

/**
 * Nesterov iteration state over a vector of 2-D positions with region
 * clamping. The objective gradient is supplied per step by the caller
 * (the driver owns the penalty schedule).
 */
class NesterovOptimizer
{
  public:
    /**
     * @param region    Positions are clamped so @p half_sizes fit inside.
     * @param half_sizes Half extents (padded) per instance for clamping.
     * @param max_step_frac Cap on per-iteration movement, as a fraction
     *                  of the region diagonal.
     * @param pool      Worker pool for the per-instance loops (null =
     *                  serial; not owned).
     */
    NesterovOptimizer(Rect region, std::vector<Vec2> half_sizes,
                      double max_step_frac = 0.05,
                      ThreadPool *pool = nullptr);

    /** Reset to a fresh starting point. */
    void reset(const std::vector<Vec2> &initial);

    /**
     * Current lookahead point; evaluate the gradient here and pass it to
     * step().
     */
    const std::vector<Vec2> &lookahead() const { return v_; }

    /** Current major solution. */
    const std::vector<Vec2> &solution() const { return x_; }

    /** Advance one iteration given the gradient at lookahead(). */
    void step(const std::vector<Vec2> &gradient);

  private:
    void clamp(std::vector<Vec2> &positions) const;

    Rect region_;
    std::vector<Vec2> halfSizes_;
    double maxStep_;
    ThreadPool *pool_;

    std::vector<Vec2> x_;      ///< Major solution.
    std::vector<Vec2> v_;      ///< Lookahead.
    std::vector<Vec2> prevV_;  ///< Previous lookahead (for BB).
    std::vector<Vec2> prevG_;  ///< Previous gradient (for BB).
    std::vector<Vec2> xNew_;   ///< Next major solution (step scratch).
    double theta_ = 1.0;
    double alpha_ = 0.0;
    bool havePrev_ = false;
};

} // namespace qplacer

#endif // QPLACER_CORE_NESTEROV_HPP
