/**
 * @file
 * Steady-state allocation suite: once its maps and scratch have their
 * size, a DensityModel::evaluate, WirelengthModel::evaluate,
 * FreqForceModel::evaluate or NesterovOptimizer::step (serial or on a
 * 4-thread pool) or a PoissonSolver::solve makes no heap allocation,
 * and neither does a Trace::Span on a null trace or on a node the
 * trace already holds.
 * This binary replaces the global operator new to count every
 * allocation the process makes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/density.hpp"
#include "core/freq_force.hpp"
#include "core/nesterov.hpp"
#include "core/poisson.hpp"
#include "core/wirelength.hpp"
#include "freq/assigner.hpp"
#include "netlist/builder.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

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

// The nothrow form too (std::stable_sort's buffer comes from it): left
// to the runtime's, its blocks would reach the free() below.
[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
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

TEST(SteadyStateAllocation, TraceSpansAllocateNothingOnceTheirNodeExists)
{
    EXPECT_EQ(allocationsOf([] {
                  Trace::Span outer(nullptr, "flow");
                  Trace::Span inner(nullptr, "assign");
              }),
              0u);

    Trace trace;
    const auto spans = [&trace] {
        Trace::Span outer(&trace, "flow");
        Trace::Span inner(&trace, "legalize");
    };
    spans();
    EXPECT_EQ(allocationsOf(spans), 0u);
}

/** 400 random qubits, two position sets and 600 random nets. */
struct RandomCase
{
    Netlist netlist;
    std::vector<Vec2> a; ///< Partly left and right of the region.
    std::vector<Vec2> b; ///< Partly below and above it.
};

/**
 * Qubits in an 8000 um square, then positions, then nets, all from one
 * stream. 400 instances and 600 nets are above the serial grain, so a
 * 4-thread pool runs the threaded paths.
 */
RandomCase
randomCase()
{
    RandomCase c;
    Rng rng(23);
    for (int i = 0; i < 400; ++i) {
        Instance q;
        q.kind = InstanceKind::Qubit;
        q.width = rng.uniform(50.0, 400.0);
        q.height = rng.uniform(50.0, 400.0);
        q.pad = 20.0;
        c.netlist.addInstance(q);
    }
    c.netlist.setRegion(Rect(0, 0, 8000, 8000));
    c.a.resize(400);
    c.b.resize(400);
    for (std::size_t i = 0; i < c.a.size(); ++i) {
        c.a[i] = Vec2(rng.uniform(-500.0, 8500.0), rng.uniform(0.0, 8000.0));
        c.b[i] = Vec2(rng.uniform(0.0, 8000.0), rng.uniform(-500.0, 8500.0));
    }
    for (int e = 0; e < 600; ++e) {
        const auto a = static_cast<int>(rng.below(400));
        c.netlist.addNet(a, (a + 1 + static_cast<int>(rng.below(399))) % 400);
    }
    return c;
}

TEST(SteadyStateAllocation, DensityEvaluateAllocatesNothingAfterFirstCall)
{
    const RandomCase c = randomCase();
    ThreadPool four(4);
    for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr), &four}) {
        DensityModel model(c.netlist, 64, pool);
        std::vector<Vec2> gradient;
        model.evaluate(c.a, gradient);
        EXPECT_EQ(allocationsOf([&] { model.evaluate(c.b, gradient); }), 0u)
            << (pool ? "4 threads" : "serial");
        EXPECT_EQ(allocationsOf([&] { model.evaluate(c.a, gradient); }), 0u)
            << (pool ? "4 threads" : "serial");
    }
}

TEST(SteadyStateAllocation, WirelengthEvaluateAllocatesNothingAfterFirstCall)
{
    const RandomCase c = randomCase();
    ThreadPool one(1);
    ThreadPool four(4);
    for (ThreadPool *pool : {&one, &four}) {
        const WirelengthModel model(c.netlist, 150.0, pool);
        std::vector<Vec2> gradient;
        model.evaluate(c.a, gradient);
        EXPECT_EQ(allocationsOf([&] { model.evaluate(c.b, gradient); }), 0u)
            << pool->threads() << " threads";
        EXPECT_EQ(allocationsOf([&] { model.evaluate(c.a, gradient); }), 0u)
            << pool->threads() << " threads";
    }
}

TEST(SteadyStateAllocation, FreqForceEvaluateAllocatesNothingAfterFirstCall)
{
    // Aspen-M: seven frequency bands, qubits and resonator segments. The
    // band grids, the neighbour lanes and their rows are members, so a
    // second evaluation on the same positions reuses all of them.
    const Topology topo = makeAspenM();
    const Netlist nl =
        NetlistBuilder().build(topo, FrequencyAssigner().assign(topo));
    std::vector<Vec2> warm;
    for (const Instance &inst : nl.instances())
        warm.push_back(inst.pos);
    std::vector<Vec2> squeezed = warm; // more pairs in range
    for (Vec2 &p : squeezed)
        p = p * 0.5;
    const CrosstalkRule rule;
    const double cutoff = FreqForceModel::kCutoffFactor;
    ThreadPool one(1);
    ThreadPool four(4);
    for (ThreadPool *pool : {&one, &four}) {
        const FreqForceModel model(nl, rule.detuningThresholdHz, cutoff,
                                   pool);
        std::vector<Vec2> gradient;
        for (const std::vector<Vec2> *pos : {&warm, &squeezed}) {
            model.evaluate(*pos, gradient);
            EXPECT_EQ(
                allocationsOf([&] { model.evaluate(*pos, gradient); }), 0u)
                << pool->threads() << " threads";
        }
    }
}

TEST(SteadyStateAllocation, NesterovStepAllocatesNothingAfterFirstCall)
{
    // 5000 instances: above the elementwise grain, so a 4-thread pool
    // runs the threaded loops.
    const std::size_t n = 5000;
    const Rect region(0, 0, 8000, 8000);
    Rng rng(5);
    std::vector<Vec2> start(n);
    std::vector<Vec2> gradient(n);
    for (std::size_t i = 0; i < n; ++i) {
        start[i] = Vec2(rng.uniform(0.0, 8000.0), rng.uniform(0.0, 8000.0));
        gradient[i] = Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    ThreadPool four(4);
    for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr), &four}) {
        NesterovOptimizer opt(region, std::vector<Vec2>(n, Vec2(20, 30)),
                              0.05, pool);
        opt.reset(start);
        opt.step(gradient);
        EXPECT_EQ(allocationsOf([&] { opt.step(gradient); }), 0u)
            << (pool ? "4 threads" : "serial");
        EXPECT_EQ(allocationsOf([&] { opt.step(gradient); }), 0u)
            << (pool ? "4 threads" : "serial");
    }
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
