/**
 * @file
 * Spectral Poisson solver on a rectangular grid with Neumann boundary
 * conditions (the electrostatics of ePlace, Eq. under Sec. IV-C1).
 *
 * Given a charge density map rho, solves
 *     laplacian(psi) = -rho
 * by expanding rho in the cosine eigenbasis cos(w_u x) cos(w_v y),
 * dividing by (w_u^2 + w_v^2), and evaluating only the field
 * xi = -grad(psi) as sine/cosine series: the placer reads the forces,
 * never the potential itself.
 *
 * The solver builds the DctPlans for its row/column lengths at
 * construction (a few microseconds each) and runs every transform pass
 * through them with owned, reusable scratch (see math/dct_plan).
 * solve() writes into caller-owned field maps and keeps its coefficient
 * map as a member: once the maps and the scratch have their size, a
 * solve allocates nothing.
 */

#ifndef QPLACER_CORE_POISSON_HPP
#define QPLACER_CORE_POISSON_HPP

#include <vector>

#include "math/dct_plan.hpp"

namespace qplacer {

class ThreadPool;

/** Solves the screened-free Poisson problem on an nx x ny grid. */
class PoissonSolver
{
  public:
    /**
     * @param nx, ny    Grid dimensions (powers of two).
     * @param width     Physical region width (um).
     * @param height    Physical region height (um).
     * @param pool      Worker pool for the row/column transform passes
     *                  (null = serial). Not owned; must outlive the
     *                  solver. Results are bitwise-identical for any
     *                  thread count (rows/columns are independent).
     */
    PoissonSolver(int nx, int ny, double width, double height,
                  ThreadPool *pool = nullptr);

    /** Result maps, row-major (index = iy*nx + ix). */
    struct Solution
    {
        std::vector<double> fieldX; ///< xi_x = -d(psi)/dx.
        std::vector<double> fieldY; ///< xi_y = -d(psi)/dy.
    };

    /**
     * Solve for the given density map (row-major, size nx*ny) into
     * @p sol, whose maps are resized to nx*ny and fully overwritten:
     * reusing one Solution across solves keeps its storage. The mean
     * (DC) component is dropped, as standard: only deviations from the
     * average density generate forces.
     *
     * Reuses the solver's internal coefficient map and transform
     * scratch: concurrent solve() calls on the same instance must be
     * externally synchronized (distinct instances are independent).
     */
    void solve(const std::vector<double> &density, Solution &sol) const;

    int nx() const { return nx_; }
    int ny() const { return ny_; }

  private:
    int nx_;
    int ny_;
    double width_;
    double height_;
    ThreadPool *pool_; ///< Transform worker pool (null = serial).
    std::vector<double> wu_; ///< Eigen-frequencies along x.
    std::vector<double> wv_; ///< Eigen-frequencies along y.
    DctPlan rowPlan_; ///< Plan for length nx.
    DctPlan colPlan_; ///< Plan for length ny.
    mutable std::vector<double> coeff_; ///< Density DCT coefficients.
    mutable DctScratch scratch_; ///< Per-chunk transform workspaces.
};

} // namespace qplacer

#endif // QPLACER_CORE_POISSON_HPP
