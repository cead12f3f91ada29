#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "core/poisson.hpp"

namespace qplacer {
namespace {

PoissonSolver::Solution
solveOnce(const PoissonSolver &solver, const std::vector<double> &rho)
{
    PoissonSolver::Solution sol;
    solver.solve(rho, sol);
    return sol;
}

TEST(Poisson, UniformDensityGivesZeroField)
{
    PoissonSolver solver(32, 32, 1000, 1000);
    const std::vector<double> rho(32 * 32, 2.5);
    const auto sol = solveOnce(solver, rho);
    for (double v : sol.fieldX)
        EXPECT_NEAR(v, 0.0, 1e-9);
    for (double v : sol.fieldY)
        EXPECT_NEAR(v, 0.0, 1e-9);
}

/** A smooth cosine bump on an n x n grid (satisfies Neumann BCs). */
std::vector<double>
cosineBump(int n)
{
    std::vector<double> rho(n * n);
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            rho[y * n + x] =
                std::cos(std::numbers::pi * (x + 0.5) / n) *
                std::cos(2 * std::numbers::pi * (y + 0.5) / n);
        }
    }
    return rho;
}

TEST(Poisson, SolutionSatisfiesDiscreteLaplacian)
{
    // Gauss's law on the field: div(xi) = -laplacian(psi) ~ rho -
    // mean(rho) for a smooth density (the bump's mean is 0).
    const int n = 64;
    const double size = 1000.0;
    PoissonSolver solver(n, n, size, size);
    const std::vector<double> rho = cosineBump(n);
    const auto sol = solveOnce(solver, rho);

    const double h = size / n;
    double max_err = 0.0;
    for (int y = 1; y + 1 < n; ++y) {
        for (int x = 1; x + 1 < n; ++x) {
            const double div =
                (sol.fieldX[y * n + x + 1] - sol.fieldX[y * n + x - 1] +
                 sol.fieldY[(y + 1) * n + x] -
                 sol.fieldY[(y - 1) * n + x]) /
                (2 * h);
            max_err = std::max(max_err, std::abs(div - rho[y * n + x]));
        }
    }
    // Second-order finite-difference agreement with the spectral answer.
    EXPECT_LT(max_err, 5e-3);
}

TEST(Poisson, FieldIsNegativeGradientOfPotential)
{
    // The field is a gradient iff it is curl-free: d(xi_x)/dy ==
    // d(xi_y)/dx up to the central-difference error, tiny next to the
    // field's own slope.
    const int n = 64;
    const double size = 1000.0;
    PoissonSolver solver(n, n, size, size);
    const auto sol = solveOnce(solver, cosineBump(n));

    const double h = size / n;
    double max_curl = 0.0;
    double max_slope = 0.0;
    for (int y = 1; y + 1 < n; ++y) {
        for (int x = 1; x + 1 < n; ++x) {
            const double dxi_x_dy = (sol.fieldX[(y + 1) * n + x] -
                                     sol.fieldX[(y - 1) * n + x]) /
                                    (2 * h);
            const double dxi_y_dx = (sol.fieldY[y * n + x + 1] -
                                     sol.fieldY[y * n + x - 1]) /
                                    (2 * h);
            const double dxi_x_dx = (sol.fieldX[y * n + x + 1] -
                                     sol.fieldX[y * n + x - 1]) /
                                    (2 * h);
            max_curl = std::max(max_curl, std::abs(dxi_x_dy - dxi_y_dx));
            max_slope = std::max(max_slope, std::abs(dxi_x_dx));
        }
    }
    EXPECT_LT(max_curl, 0.01 * max_slope);
}

TEST(Poisson, FieldPointsAwayFromCharge)
{
    const int n = 32;
    PoissonSolver solver(n, n, 1000, 1000);
    std::vector<double> rho(n * n, 0.0);
    rho[(n / 2) * n + n / 2] = 1.0;
    const auto sol = solveOnce(solver, rho);
    // Right of the charge the x-field is positive (repulsive).
    EXPECT_GT(sol.fieldX[(n / 2) * n + n / 2 + 4], 0.0);
    EXPECT_LT(sol.fieldX[(n / 2) * n + n / 2 - 4], 0.0);
    EXPECT_GT(sol.fieldY[(n / 2 + 4) * n + n / 2], 0.0);
    EXPECT_LT(sol.fieldY[(n / 2 - 4) * n + n / 2], 0.0);
}

TEST(Poisson, RejectsBadInputs)
{
    EXPECT_THROW(PoissonSolver(12, 32, 100, 100), std::logic_error);
    PoissonSolver solver(16, 16, 100, 100);
    PoissonSolver::Solution sol;
    EXPECT_THROW(solver.solve(std::vector<double>(10, 0.0), sol),
                 std::logic_error);
}

} // namespace
} // namespace qplacer
