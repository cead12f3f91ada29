/**
 * @file
 * The penalty-method objective of Eq. (14):
 *   min  WL(x, y) + lambda * D(x, y) + lambda_f * F(x, y)
 * with lambda/lambda_f initialized from gradient-norm ratios and grown
 * multiplicatively each iteration, shifting the engine from pure area
 * (wirelength) optimization toward constraint satisfaction.
 */

#ifndef QPLACER_CORE_OBJECTIVE_HPP
#define QPLACER_CORE_OBJECTIVE_HPP

#include <memory>
#include <vector>

#include "core/density.hpp"
#include "core/freq_force.hpp"
#include "core/params.hpp"
#include "core/wirelength.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

class ThreadPool;

/** Combined placement objective with penalty schedule. */
class PlacementObjective
{
  public:
    /**
     * @param rule Crosstalk rule; the frequency force reads Delta_c.
     * @param pool Worker pool shared by every component model (null =
     *             serial; not owned, must outlive the objective).
     */
    PlacementObjective(const Netlist &netlist, const PlacerParams &params,
                       const CrosstalkRule &rule,
                       ThreadPool *pool = nullptr);

    /**
     * Gradient of the penalized objective (per instance,
     * Jacobi-preconditioned by net degree + lambda * charge). Every
     * term is gradient-only: the Nesterov step reads the gradient and
     * the density overflow, never an objective value.
     */
    void evaluate(const std::vector<Vec2> &positions,
                  std::vector<Vec2> &gradient);

    /**
     * Initialize lambda and lambda_f from the gradient norms at @p
     * positions (call once before the loop).
     */
    void initPenalties(const std::vector<Vec2> &positions);

    /** Grow both penalty multipliers one schedule step. */
    void growPenalties();

    /** Density overflow after the last evaluate(). */
    double overflow() const { return density_.overflow(); }

    /** Anneal the wirelength smoothing with the current overflow. */
    void updateGamma(double overflow);

  private:
    /**
     * Multiplier of a term that can be dormant (the frequency force):
     * zero until the term's gradient first turns non-zero, then
     * weight * |grad WL|_1 / |grad|_1, grown each step by a fixed
     * factor up to a fixed multiple of that start.
     */
    struct LazyPenalty
    {
        double lambda = 0.0;
        double init = 0.0; ///< lambda at activation.
        bool live = false;
    };

    /** Start @p penalty if it is dormant and @p grad is non-zero. */
    void activate(LazyPenalty &penalty, double weight,
                  const std::vector<Vec2> &grad) const;

    const Netlist &netlist_;
    PlacerParams params_;
    ThreadPool *pool_;
    WirelengthModel wirelength_;
    DensityModel density_;
    std::unique_ptr<FreqForceModel> freqForce_;
    std::vector<double> netDegree_;
    double gammaBase_;
    double lambda_ = 0.0;
    LazyPenalty freq_;
    std::vector<Vec2> gradWl_;
    std::vector<Vec2> gradDen_;
    std::vector<Vec2> gradFreq_;
};

} // namespace qplacer

#endif // QPLACER_CORE_OBJECTIVE_HPP
