/**
 * @file
 * Smooth wirelength model: per-net log-sum-exp approximation of HPWL
 * with analytic gradient (the WL(e; x, y) term of Eq. 12).
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
     * Smooth wirelength of the current @p positions and its gradient.
     * @param positions   Center per instance.
     * @param gradient    Output (resized and overwritten).
     * @return smooth wirelength value (um).
     */
    double evaluate(const std::vector<Vec2> &positions,
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
