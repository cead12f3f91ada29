/**
 * @file
 * Electrostatic density penalty D(x, y) (Eq. 11/13).
 *
 * Instances are charges of magnitude equal to their padded area; the
 * density map is splatted onto a bin grid, the Poisson field is solved
 * spectrally, and each instance feels force = charge * field.
 *
 * One evaluation builds each instance's footprint stencil (the
 * footprint clamped into the region and its bin span, see
 * geometry/bin_grid) once; the splat and the gather of both field
 * components walk that same stencil. The stencils, the normalized
 * density map and the field maps are members reused across calls, so
 * at a fixed instance count an evaluation allocates nothing after the
 * first, at any thread count.
 */

#ifndef QPLACER_CORE_DENSITY_HPP
#define QPLACER_CORE_DENSITY_HPP

#include <memory>
#include <vector>

#include "core/poisson.hpp"
#include "geometry/bin_grid.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

class ThreadPool;

/** Bin-based electrostatic density model. */
class DensityModel
{
  public:
    /**
     * Target bin fill D-hat relative to a full bin; overflow() counts
     * the charge above it.
     */
    static constexpr double kTargetDensity = 0.9;

    /**
     * @param netlist Netlist (kept by reference).
     * @param bins    Bins per axis (power of two).
     * @param pool    Worker pool shared with the Poisson solver
     *                (null = serial; not owned).
     */
    DensityModel(const Netlist &netlist, int bins, ThreadPool *pool = nullptr);

    /**
     * Gradient of the density penalty at @p positions.
     * @param positions Instance centers.
     * @param gradient  Output gradient (resized inside, every element
     *                  overwritten):
     *                  d(energy)/d(x_i) = -q_i * xi_x(x_i).
     */
    void evaluate(const std::vector<Vec2> &positions,
                  std::vector<Vec2> &gradient);

    /**
     * Density overflow after the last evaluate(): total charge above the
     * target bin capacity, normalized by total charge. The optimizer's
     * convergence criterion.
     */
    double overflow() const { return overflow_; }

    /** Pick a power-of-two bin count for a netlist of n instances. */
    static int autoBinCount(int num_instances);

    const BinGrid &grid() const { return grid_; }

  private:
    const Netlist &netlist_;
    BinGrid grid_;
    PoissonSolver solver_;
    ThreadPool *pool_;
    double overflow_ = 1.0;
    std::vector<BinStencil> stencils_; ///< Per-instance, last evaluate().
    std::vector<double> density_;      ///< Charge per unit area.
    PoissonSolver::Solution field_;    ///< Field of density_.
};

} // namespace qplacer

#endif // QPLACER_CORE_DENSITY_HPP
