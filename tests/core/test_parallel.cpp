/**
 * @file
 * Serial-vs-parallel equivalence of the threaded hot path: batched
 * DCT/IDCT passes, the Poisson solve, the density model, the full
 * objective gradient and whole placements all reproduce the serial
 * bits (memcmp) at every thread count.
 */

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/density.hpp"
#include "core/objective.hpp"
#include "core/placer.hpp"
#include "core/poisson.hpp"
#include "freq/assigner.hpp"
#include "math/dct_plan.hpp"
#include "netlist/builder.hpp"
#include "topology/generators.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

/** Reproducible pseudo-random map without <random> overhead. */
std::vector<double>
syntheticMap(std::size_t n, double scale)
{
    std::vector<double> map(n);
    for (std::size_t i = 0; i < n; ++i)
        map[i] = scale * std::sin(0.37 * static_cast<double>(i) + 1.1) +
                 0.5 * std::cos(1.93 * static_cast<double>(i));
    return map;
}

Netlist
gridNetlist(int rows, int cols)
{
    const Topology topo = makeGrid(rows, cols);
    const auto freqs = FrequencyAssigner().assign(topo);
    return NetlistBuilder().build(topo, freqs);
}

/** One batched row pass through a plan for length @p nx. */
void
transformRows(std::vector<double> &map, int nx, int ny,
              DctPlan::Kind kind, ThreadPool *pool)
{
    DctScratch scratch;
    DctPlan(static_cast<std::size_t>(nx))
        .transformRows(map, nx, ny, kind, pool, scratch);
}

/** One batched column pass through a plan for length @p ny. */
void
transformCols(std::vector<double> &map, int nx, int ny,
              DctPlan::Kind kind, ThreadPool *pool)
{
    DctScratch scratch;
    DctPlan(static_cast<std::size_t>(ny))
        .transformCols(map, nx, ny, kind, pool, scratch);
}

/** Placed instance centres of @p netlist. */
std::vector<Vec2>
positionsOf(const Netlist &netlist)
{
    std::vector<Vec2> pos;
    pos.reserve(netlist.instances().size());
    for (const Instance &inst : netlist.instances())
        pos.push_back(inst.pos);
    return pos;
}

/** memcmp equality: same bits, not merely same values. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

/** memcmp equality of two gradients or position vectors. */
bool
sameBits(const std::vector<Vec2> &a, const std::vector<Vec2> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(Vec2)) == 0);
}

/** Thread counts the kernels must be invariant over. */
constexpr int kThreadCounts[] = {1, 2, 3, 4, 7, 16};

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    EXPECT_EQ(a.size(), b.size());
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

/**
 * Batched row/column passes against the serial reference for every
 * kernel kind. Row counts deliberately include odd batch sizes (the
 * transform length itself must stay a power of two) and sizes on both
 * sides of the kGrainCoarse serial cutoff.
 */
TEST(ParallelDct, BatchTransformsMatchSerialAcrossThreadCounts)
{
    const DctPlan::Kind kinds[] = {DctPlan::Kind::Dct2,
                                   DctPlan::Kind::CosSeries,
                                   DctPlan::Kind::SinSeries};
    struct Shape
    {
        int nx; ///< Transform length (power of two).
        int ny; ///< Batch rows (odd and even on purpose).
    };
    const Shape shapes[] = {{16, 5}, {16, 8}, {32, 7}, {16, 64},
                            {32, 65}, {64, 128}};
    static_assert(ThreadPool::kGrainCoarse <= 64,
                  "largest batches must exercise the threaded path");

    for (const Shape &shape : shapes) {
        const std::vector<double> input = syntheticMap(
            static_cast<std::size_t>(shape.nx) * shape.ny, 2.0);
        for (const DctPlan::Kind kind : kinds) {
            std::vector<double> serial = input;
            transformRows(serial, shape.nx, shape.ny, kind, nullptr);
            for (const int threads : {1, 2, 8}) {
                ThreadPool pool(threads);
                std::vector<double> parallel = input;
                transformRows(parallel, shape.nx, shape.ny, kind, &pool);
                // Rows are independent: any thread count must
                // reproduce the serial pass bit for bit.
                EXPECT_EQ(serial, parallel)
                    << shape.nx << "x" << shape.ny << " rows, "
                    << threads << " threads";
            }
        }
    }
}

TEST(ParallelDct, BatchColumnsMatchSerialAcrossThreadCounts)
{
    // Columns of length 16 over odd and even column counts, straddling
    // the serial cutoff.
    for (const int nx : {5, 8, 65, 128}) {
        const int ny = 16;
        const std::vector<double> input =
            syntheticMap(static_cast<std::size_t>(nx) * ny, 1.0);
        std::vector<double> serial = input;
        transformCols(serial, nx, ny, DctPlan::Kind::Dct2, nullptr);
        for (const int threads : {2, 8}) {
            ThreadPool pool(threads);
            std::vector<double> parallel = input;
            transformCols(parallel, nx, ny, DctPlan::Kind::Dct2, &pool);
            EXPECT_EQ(serial, parallel) << threads << " threads";
        }
    }
}

TEST(ParallelDct, RoundTripSurvivesThreading)
{
    ThreadPool pool(8);
    const int nx = 32;
    const int ny = 65;
    const std::vector<double> input =
        syntheticMap(static_cast<std::size_t>(nx) * ny, 3.0);
    std::vector<double> map = input;
    transformRows(map, nx, ny, DctPlan::Kind::Dct2, &pool);
    // The cosine series of a DCT-II spectrum is N times its input.
    transformRows(map, nx, ny, DctPlan::Kind::CosSeries, &pool);
    for (double &v : map)
        v /= nx;
    EXPECT_LT(maxAbsDiff(map, input), 1e-9);
}

TEST(ParallelPoisson, SolutionMatchesSerialAcrossThreadCounts)
{
    // Rows and columns are transformed independently, so every thread
    // count reproduces the serial field maps bit for bit. Grids must be
    // powers of two, so cover square and non-square shapes on both sides
    // of the serial grain; 3 and 7 threads give uneven chunk spans.
    struct Shape
    {
        int nx;
        int ny;
    };
    const Shape shapes[] = {{16, 16}, {32, 16},  {16, 32},
                            {64, 64}, {128, 32}, {256, 256}};

    for (const Shape &shape : shapes) {
        const std::vector<double> density = syntheticMap(
            static_cast<std::size_t>(shape.nx) * shape.ny, 4.0);
        const PoissonSolver serial(shape.nx, shape.ny, 1000.0, 800.0);
        PoissonSolver::Solution ref;
        serial.solve(density, ref);

        for (const int threads : {1, 2, 3, 4, 7, 8}) {
            ThreadPool pool(threads);
            const PoissonSolver threaded(shape.nx, shape.ny, 1000.0,
                                         800.0, &pool);
            PoissonSolver::Solution sol;
            threaded.solve(density, sol);
            EXPECT_TRUE(sameBits(sol.fieldX, ref.fieldX))
                << shape.nx << "x" << shape.ny << " fieldX, " << threads
                << " threads";
            EXPECT_TRUE(sameBits(sol.fieldY, ref.fieldY))
                << shape.nx << "x" << shape.ny << " fieldY, " << threads
                << " threads";
        }
    }
}

TEST(ParallelDensity, GradientMatchesSerial)
{
    const Netlist netlist = gridNetlist(5, 5);
    // Large enough that the instance loops take the threaded path
    // instead of the serial-grain fallback.
    ASSERT_GE(netlist.instances().size(), ThreadPool::kGrainMedium);
    std::vector<Vec2> positions(netlist.instances().size());
    for (std::size_t i = 0; i < positions.size(); ++i)
        positions[i] = netlist.instances()[i].pos;

    DensityModel serial(netlist, 32);
    std::vector<Vec2> ref_grad;
    serial.evaluate(positions, ref_grad);
    const double ref_overflow = serial.overflow();

    // Every bin adds its charges in instance order whatever the row
    // split, so any thread count gives the serial bits.
    for (const int threads : kThreadCounts) {
        ThreadPool pool(threads);
        DensityModel threaded(netlist, 32, &pool);
        std::vector<Vec2> grad;
        threaded.evaluate(positions, grad);
        EXPECT_EQ(threaded.overflow(), ref_overflow) << threads << " threads";
        EXPECT_TRUE(sameBits(grad, ref_grad)) << threads << " threads";
    }
}

TEST(ParallelObjective, FullGradientMatchesSerial)
{
    // Exercises every threaded model at once: wirelength, density,
    // frequency force, and the preconditioned combine. The netlist must
    // exceed the serial grain or the threaded paths are never taken.
    const Netlist netlist = gridNetlist(5, 5);
    ASSERT_GE(netlist.instances().size(), ThreadPool::kGrainMedium);
    ASSERT_GE(netlist.nets().size(), ThreadPool::kGrainMedium);
    std::vector<Vec2> positions(netlist.instances().size());
    for (std::size_t i = 0; i < positions.size(); ++i)
        positions[i] = netlist.instances()[i].pos;

    PlacerParams params;
    ASSERT_TRUE(params.freqForce);
    PlacementObjective serial(netlist, params, CrosstalkRule());
    serial.initPenalties(positions);
    std::vector<Vec2> ref_grad;
    serial.evaluate(positions, ref_grad);

    for (const int threads : kThreadCounts) {
        ThreadPool pool(threads);
        PlacementObjective threaded(netlist, params, CrosstalkRule(),
                                    &pool);
        threaded.initPenalties(positions);
        std::vector<Vec2> grad;
        threaded.evaluate(positions, grad);
        EXPECT_TRUE(sameBits(grad, ref_grad)) << threads << " threads";
    }
}

TEST(ParallelPlacement, SameSeedAndThreadCountReproducesBitwise)
{
    for (const int threads : {2, 4}) {
        PlacerParams params;
        params.seed = 7;
        params.threads = threads;
        // grid5x5 exceeds the serial grain, so the threaded model paths
        // really run.
        Netlist a = gridNetlist(5, 5);
        Netlist b = gridNetlist(5, 5);
        GlobalPlacer(params).place(a);
        GlobalPlacer(params).place(b);
        ASSERT_EQ(a.numInstances(), b.numInstances());
        for (int i = 0; i < a.numInstances(); ++i) {
            EXPECT_DOUBLE_EQ(a.instance(i).pos.x, b.instance(i).pos.x)
                << threads << " threads, instance " << i;
            EXPECT_DOUBLE_EQ(a.instance(i).pos.y, b.instance(i).pos.y)
                << threads << " threads, instance " << i;
        }
    }
}

TEST(ParallelPlacement, ThreadedRunStaysCloseToSerial)
{
    // Every threaded kernel reproduces the serial bits, so hundreds of
    // iterations cannot drift apart: the placed layout is the serial
    // one, frequency force included, at any thread count.
    PlacerParams serial_params;
    serial_params.seed = 11;
    serial_params.threads = 1;
    ASSERT_TRUE(serial_params.freqForce);
    Netlist serial_nl = gridNetlist(5, 5);
    const PlaceResult serial_r =
        GlobalPlacer(serial_params).place(serial_nl);
    EXPECT_TRUE(serial_r.converged);
    const std::vector<Vec2> serial_pos = positionsOf(serial_nl);

    for (const int threads : {2, 3, 4}) {
        PlacerParams params = serial_params;
        params.threads = threads;
        Netlist nl = gridNetlist(5, 5);
        const PlaceResult r = GlobalPlacer(params).place(nl);
        EXPECT_EQ(r.iterations, serial_r.iterations) << threads << " threads";
        EXPECT_EQ(r.finalHpwl, serial_r.finalHpwl) << threads << " threads";
        EXPECT_TRUE(sameBits(positionsOf(nl), serial_pos))
            << threads << " threads";
    }
}

} // namespace
} // namespace qplacer
