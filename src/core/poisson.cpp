#include "core/poisson.hpp"

#include <numbers>

#include "math/plan_cache.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

PoissonSolver::PoissonSolver(int nx, int ny, double width, double height,
                             ThreadPool *pool)
    : nx_(nx), ny_(ny), width_(width), height_(height), pool_(pool)
{
    if (!isPowerOfTwo(static_cast<std::size_t>(nx)) ||
        !isPowerOfTwo(static_cast<std::size_t>(ny))) {
        panic(str("PoissonSolver: grid ", nx, "x", ny,
                  " must be powers of two"));
    }
    if (width <= 0.0 || height <= 0.0)
        panic("PoissonSolver: non-positive physical size");

    wu_.resize(nx);
    wv_.resize(ny);
    for (int u = 0; u < nx; ++u)
        wu_[u] = std::numbers::pi * u / width;
    for (int v = 0; v < ny; ++v)
        wv_[v] = std::numbers::pi * v / height;

    // One plan per transform length, shared process-wide; solvers on
    // the same grid size all execute from the same tables.
    rowPlan_ = PlanCache::dct(static_cast<std::size_t>(nx));
    colPlan_ = PlanCache::dct(static_cast<std::size_t>(ny));
}

PoissonSolver::Solution
PoissonSolver::solve(const std::vector<double> &density) const
{
    const std::size_t cells = static_cast<std::size_t>(nx_) * ny_;
    if (density.size() != cells)
        panic("PoissonSolver::solve: density map size mismatch");

    // Row/column transform passes through the cached plans.
    const auto rows = [&](std::vector<double> &map, DctPlan::Kind kind) {
        rowPlan_->transformRows(map, nx_, ny_, kind, pool_, scratch_);
    };
    const auto cols = [&](std::vector<double> &map, DctPlan::Kind kind) {
        colPlan_->transformCols(map, nx_, ny_, kind, pool_, scratch_);
    };

    // Forward 2-D DCT of the density -> eigenbasis coefficients.
    std::vector<double> coeff = density;
    rows(coeff, DctPlan::Kind::Dct2);
    cols(coeff, DctPlan::Kind::Dct2);
    const double norm = 1.0 / (static_cast<double>(nx_) * ny_);
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                coeff[i] *= norm;
        },
        ThreadPool::kGrainFine);

    // Divide by the Laplacian eigenvalues; drop the DC term.
    std::vector<double> psi_coeff(cells, 0.0);
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const int u = static_cast<int>(i % nx_);
                const int v = static_cast<int>(i / nx_);
                if (u == 0 && v == 0)
                    continue;
                const double w2 = wu_[u] * wu_[u] + wv_[v] * wv_[v];
                psi_coeff[i] = coeff[i] / w2;
            }
        },
        ThreadPool::kGrainFine);

    Solution sol;

    // Potential psi.
    sol.potential = psi_coeff;
    rows(sol.potential, DctPlan::Kind::CosSeries);
    cols(sol.potential, DctPlan::Kind::CosSeries);

    // Field xi_x: sine series in x of (w_u * psi_coeff).
    sol.fieldX.assign(cells, 0.0);
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                sol.fieldX[i] = wu_[i % nx_] * psi_coeff[i];
        },
        ThreadPool::kGrainFine);
    rows(sol.fieldX, DctPlan::Kind::SinSeries);
    cols(sol.fieldX, DctPlan::Kind::CosSeries);

    // Field xi_y: sine series in y of (w_v * psi_coeff).
    sol.fieldY.assign(cells, 0.0);
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                sol.fieldY[i] = wv_[i / nx_] * psi_coeff[i];
        },
        ThreadPool::kGrainFine);
    rows(sol.fieldY, DctPlan::Kind::CosSeries);
    cols(sol.fieldY, DctPlan::Kind::SinSeries);

    return sol;
}

} // namespace qplacer
