#include "core/poisson.hpp"

#include <numbers>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

PoissonSolver::PoissonSolver(int nx, int ny, double width, double height,
                             ThreadPool *pool)
    : nx_(nx), ny_(ny), width_(width), height_(height), pool_(pool),
      // The plans reject a length that is not a power of two.
      rowPlan_(static_cast<std::size_t>(nx)),
      colPlan_(static_cast<std::size_t>(ny))
{
    if (width <= 0.0 || height <= 0.0)
        panic("PoissonSolver: non-positive physical size");

    wu_.resize(nx);
    wv_.resize(ny);
    for (int u = 0; u < nx; ++u)
        wu_[u] = std::numbers::pi * u / width;
    for (int v = 0; v < ny; ++v)
        wv_[v] = std::numbers::pi * v / height;
}

void
PoissonSolver::solve(const std::vector<double> &density,
                     Solution &sol) const
{
    const std::size_t cells = static_cast<std::size_t>(nx_) * ny_;
    if (density.size() != cells)
        panic("PoissonSolver::solve: density map size mismatch");

    // Row/column transform passes through the solver's plans.
    const auto rows = [&](std::vector<double> &map, DctPlan::Kind kind) {
        rowPlan_.transformRows(map, nx_, ny_, kind, pool_, scratch_);
    };
    const auto cols = [&](std::vector<double> &map, DctPlan::Kind kind) {
        colPlan_.transformCols(map, nx_, ny_, kind, pool_, scratch_);
    };

    // Forward 2-D DCT of the density -> eigenbasis coefficients.
    coeff_.assign(density.begin(), density.end());
    rows(coeff_, DctPlan::Kind::Dct2);
    cols(coeff_, DctPlan::Kind::Dct2);
    const double norm = 1.0 / (static_cast<double>(nx_) * ny_);

    // Scale to the field coefficients of each axis (w_u * psi for xi_x,
    // w_v * psi for xi_y, with psi = coeff*norm / (wu^2 + wv^2)),
    // dropping the DC term, one grid row at a time. Every other element
    // of both maps is written below.
    sol.fieldX.resize(cells);
    sol.fieldY.resize(cells);
    sol.fieldX[0] = 0.0;
    sol.fieldY[0] = 0.0;
    const auto nx = static_cast<std::size_t>(nx_);
    parallelFor(
        pool_, static_cast<std::size_t>(ny_),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t v = begin; v < end; ++v) {
                const double wv = wv_[v];
                const double wv2 = wv * wv;
                for (std::size_t u = v == 0 ? 1 : 0; u < nx; ++u) {
                    const std::size_t i = v * nx + u;
                    const double psi =
                        coeff_[i] * norm / (wu_[u] * wu_[u] + wv2);
                    sol.fieldX[i] = wu_[u] * psi;
                    sol.fieldY[i] = wv * psi;
                }
            }
        },
        ThreadPool::kGrainFine / nx);

    // Field xi_x: sine series in x of (w_u * psi).
    rows(sol.fieldX, DctPlan::Kind::SinSeries);
    cols(sol.fieldX, DctPlan::Kind::CosSeries);

    // Field xi_y: sine series in y of (w_v * psi).
    rows(sol.fieldY, DctPlan::Kind::CosSeries);
    cols(sol.fieldY, DctPlan::Kind::SinSeries);
}

} // namespace qplacer
