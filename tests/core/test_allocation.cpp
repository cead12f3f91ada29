/**
 * @file
 * Steady-state allocation suite: once its maps and scratch have their
 * size, a serial DensityModel::evaluate or PoissonSolver::solve makes
 * no heap allocation. This binary replaces the global operator new to
 * count every allocation the process makes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/density.hpp"
#include "core/poisson.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

} // namespace

// The replacements stay out of line: inlined into a new- or
// delete-expression, their malloc()/free() trips GCC's new/free mismatch
// warning.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace qplacer {
namespace {

/** Allocations made by @p fn. */
template <class Fn>
std::size_t
allocationsOf(Fn &&fn)
{
    const std::size_t before = g_allocations.load();
    fn();
    return g_allocations.load() - before;
}

TEST(SteadyStateAllocation, CounterSeesAllocations)
{
    EXPECT_GE(allocationsOf([] { std::vector<double> v(16); }), 1u);
}

TEST(SteadyStateAllocation, DensityEvaluateAllocatesNothingAfterFirstCall)
{
    Netlist netlist;
    Rng rng(23);
    for (int i = 0; i < 400; ++i) {
        Instance q;
        q.kind = InstanceKind::Qubit;
        q.width = rng.uniform(50.0, 400.0);
        q.height = rng.uniform(50.0, 400.0);
        q.pad = 20.0;
        netlist.addInstance(q);
    }
    netlist.setRegion(Rect(0, 0, 8000, 8000));
    std::vector<Vec2> a(400);
    std::vector<Vec2> b(400);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = Vec2(rng.uniform(-500.0, 8500.0), rng.uniform(0.0, 8000.0));
        b[i] = Vec2(rng.uniform(0.0, 8000.0), rng.uniform(-500.0, 8500.0));
    }

    DensityModel model(netlist, 64, 0.9);
    std::vector<Vec2> gradient;
    model.evaluate(a, gradient);
    EXPECT_EQ(allocationsOf([&] { model.evaluate(b, gradient); }), 0u);
    EXPECT_EQ(allocationsOf([&] { model.evaluate(a, gradient); }), 0u);
}

TEST(SteadyStateAllocation, PoissonSolveAllocatesNothingAfterFirstCall)
{
    const int nx = 128;
    const int ny = 64;
    Rng rng(7);
    std::vector<double> density(static_cast<std::size_t>(nx) * ny);
    for (double &d : density)
        d = rng.uniform(0.0, 2.0);
    const PoissonSolver solver(nx, ny, 3000.0, 1500.0);
    PoissonSolver::Solution sol;
    solver.solve(density, sol);
    EXPECT_EQ(allocationsOf([&] { solver.solve(density, sol); }), 0u);
}

} // namespace
} // namespace qplacer
