/**
 * @file
 * Smooth wirelength model: the analytic gradient of the per-net
 * log-sum-exp approximation of HPWL (the WL(e; x, y) term of Eq. 12).
 * The optimizer reads only the gradient, so the smooth value itself is
 * never formed; Netlist::hpwl is the exact reporting metric.
 *
 * The gradient is gathered, not scattered: each net's pull is formed
 * once, then each instance sums the pulls of its incident nets in net
 * order, which is the order a serial per-net scatter would add them in.
 * Every thread count therefore gives the serial bits, and an
 * evaluation allocates nothing after the first.
 */

#ifndef QPLACER_CORE_WIRELENGTH_HPP
#define QPLACER_CORE_WIRELENGTH_HPP

#include <cstddef>
#include <vector>

#include "geometry/vec2.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

class ThreadPool;

/** Log-sum-exp smooth wirelength over the netlist's 2-pin nets. */
class WirelengthModel
{
  public:
    /**
     * @param netlist Netlist whose nets are measured (kept by pointer;
     *                must outlive the model). Each instance's incident
     *                nets are listed here, once.
     * @param gamma   Smoothing parameter (um); smaller = closer to HPWL.
     * @param pool    Worker pool (null = serial; not owned).
     */
    WirelengthModel(const Netlist &netlist, double gamma,
                    ThreadPool *pool = nullptr);

    /**
     * Gradient of the smooth wirelength at @p positions.
     * @param positions   Center per instance.
     * @param gradient    Output (resized and overwritten).
     */
    void evaluate(const std::vector<Vec2> &positions,
                  std::vector<Vec2> &gradient) const;

    double gamma() const { return gamma_; }

    /** Update gamma (annealed by the optimizer as overflow falls). */
    void setGamma(double gamma);

  private:
    const Netlist &netlist_;
    double gamma_;
    ThreadPool *pool_;
    /**
     * Incident nets per instance, in net order: instance k's entries
     * are pins_[pinStart_[k], pinStart_[k + 1]), each 2 * net for the
     * net's a end or 2 * net + 1 for its b end.
     */
    std::vector<std::size_t> pinStart_;
    std::vector<std::size_t> pins_;
    /** Per-net weight * tanh pull at the a end, last evaluate(). */
    mutable std::vector<Vec2> netPull_;
};

} // namespace qplacer

#endif // QPLACER_CORE_WIRELENGTH_HPP
