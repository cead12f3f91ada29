/**
 * @file
 * Smooth wirelength model: the analytic gradient of the per-net
 * log-sum-exp approximation of HPWL (the WL(e; x, y) term of Eq. 12).
 * The optimizer reads only the gradient, so the smooth value itself is
 * never formed; hpwl() is the exact reporting metric.
 */

#ifndef QPLACER_CORE_WIRELENGTH_HPP
#define QPLACER_CORE_WIRELENGTH_HPP

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
     *                must outlive the model).
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

    /** Exact half-perimeter wirelength (reporting metric). */
    double hpwl(const std::vector<Vec2> &positions) const;

    double gamma() const { return gamma_; }

    /** Update gamma (annealed by the optimizer as overflow falls). */
    void setGamma(double gamma);

  private:
    const Netlist &netlist_;
    double gamma_;
    ThreadPool *pool_;
};

} // namespace qplacer

#endif // QPLACER_CORE_WIRELENGTH_HPP
