/**
 * @file
 * Plan-equivalence suite: the precomputed DctPlan/FftPlan execution
 * path must be *bitwise*-identical (memcmp, not just EXPECT_DOUBLE_EQ)
 * to the plan-free reference kernels (the 1-D Dct kernels and the
 * row/column oracle passes in tests/oracles), over random inputs at
 * every power-of-two length from 2 to 1024 and across thread counts.
 * The batched passes transform tiles of lines, so the suite also
 * covers chunk spans that are not a multiple of the tile (3 and 7
 * threads), maps with fewer lines than one tile, and inputs seeded
 * with signed zeros and subnormals.
 * The Poisson solver composes exactly these planned passes, so its
 * solutions are those of the plan-free kernels.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/poisson.hpp"
#include "math/dct_plan.hpp"
#include "math/fft_plan.hpp"
#include "oracles/oracles.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

using oracle::Dct;
using oracle::Fft;

std::vector<double>
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (auto &x : v)
        x = rng.uniform(-2.0, 2.0);
    return v;
}

/**
 * The inputs every kernel is checked on: uniform random values, and
 * the same values with every third element replaced, in turn, by
 * +0.0, -0.0, a positive and a negative subnormal.
 */
std::vector<std::vector<double>>
inputs(std::size_t n, std::uint64_t seed)
{
    std::vector<double> special = randomVector(n, seed);
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double values[] = {0.0, -0.0, 12345.0 * tiny, -67.0 * tiny};
    for (std::size_t i = 0; i < n; i += 3)
        special[i] = values[(i / 3) % 4];
    return {randomVector(n, seed), special};
}

/** memcmp equality: same bits, not merely same values. */
::testing::AssertionResult
bitwiseEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    if (!a.empty() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
                return ::testing::AssertionFailure()
                       << "first bit difference at index " << i << ": "
                       << a[i] << " vs " << b[i];
        }
    }
    return ::testing::AssertionSuccess();
}

constexpr Dct::Kind kKinds[] = {Dct::Kind::Dct2, Dct::Kind::CosSeries,
                                Dct::Kind::SinSeries};

class PlanSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PlanSizes, FftPlanMatchesFftBitwise)
{
    const std::size_t n = GetParam();
    const auto re = inputs(n, 100 + n);
    const auto im = inputs(n, 200 + n);
    const FftPlan plan(n);
    // The plan transforms a line its caller has already put in
    // bit-reversed order and leaves the inverse unnormalized; do both
    // here the way oracle::Fft does them.
    const auto transform = [&](std::vector<Fft::Complex> &x, bool invert) {
        std::vector<Fft::Complex> slots(n);
        for (std::size_t k = 0; k < n; ++k)
            slots[plan.bitReversal()[k]] = x[k];
        auto *parts = reinterpret_cast<double *>(slots.data());
        plan.execute(parts, parts + 1, 1, 2, invert);
        if (invert) {
            const double inv_n = 1.0 / static_cast<double>(n);
            for (auto &v : slots)
                v *= inv_n;
        }
        x = slots;
    };
    for (std::size_t input = 0; input < re.size(); ++input) {
        SCOPED_TRACE(input);
        std::vector<Fft::Complex> reference(n);
        for (std::size_t i = 0; i < n; ++i)
            reference[i] = Fft::Complex(re[input][i], im[input][i]);
        std::vector<Fft::Complex> planned = reference;

        Fft::forward(reference);
        transform(planned, false);
        ASSERT_EQ(0, std::memcmp(reference.data(), planned.data(),
                                 n * sizeof(Fft::Complex)));

        Fft::inverse(reference);
        transform(planned, true);
        ASSERT_EQ(0, std::memcmp(reference.data(), planned.data(),
                                 n * sizeof(Fft::Complex)));
    }
}

TEST_P(PlanSizes, ApplyMatchesDctKernelsBitwise)
{
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    DctScratch scratch;
    scratch.ensure(1);
    for (const Dct::Kind kind : kKinds) {
        for (const auto &x :
             inputs(n, 300 + n + static_cast<std::size_t>(kind))) {
            const std::vector<double> reference = Dct::apply(kind, x);
            std::vector<double> planned = x;
            plan.apply(kind, planned.data(), scratch.lane(0));
            EXPECT_TRUE(bitwiseEqual(reference, planned))
                << "kind " << static_cast<int>(kind) << " length " << n;
        }
    }
}

TEST_P(PlanSizes, ScratchLaneReuseIsStateless)
{
    // Back-to-back transforms through one lane (as the batched passes
    // do) must not see stale state from the previous line.
    const std::size_t n = GetParam();
    const DctPlan plan(n);
    DctScratch scratch;
    scratch.ensure(1);
    for (int round = 0; round < 3; ++round) {
        for (const Dct::Kind kind : kKinds) {
            const auto x = randomVector(n, 400 + n + round);
            std::vector<double> planned = x;
            plan.apply(kind, planned.data(), scratch.lane(0));
            EXPECT_TRUE(bitwiseEqual(Dct::apply(kind, x), planned));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlanSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024));

class PlanThreads : public ::testing::TestWithParam<int>
{
  protected:
    ThreadPool *
    pool()
    {
        if (GetParam() <= 1)
            return nullptr;
        if (!pool_)
            pool_ = std::make_unique<ThreadPool>(GetParam());
        return pool_.get();
    }

  private:
    std::unique_ptr<ThreadPool> pool_;
};

// Each pass runs on three maps: one whose lines engage the pool (more
// than kGrainCoarse of them), one with fewer lines than a tile of the
// batched pass, and one of length-2 lines.

TEST_P(PlanThreads, TransformRowsMatchesUnplannedBitwise)
{
    const std::pair<int, int> shapes[] = {{64, 128}, {1024, 2}, {2, 1024}};
    for (std::size_t shape = 0; shape < std::size(shapes); ++shape) {
        const auto [nx, ny] = shapes[shape];
        for (const Dct::Kind kind : kKinds) {
            for (const auto &map :
                 inputs(static_cast<std::size_t>(nx) * ny,
                        500 + 8 * shape + static_cast<std::size_t>(kind))) {
                std::vector<double> reference = map;
                std::vector<double> planned = map;
                oracle::transformRowsUnplanned(reference, nx, ny, kind,
                                               pool());
                DctScratch scratch;
                DctPlan(nx).transformRows(planned, nx, ny, kind, pool(),
                                          scratch);
                EXPECT_TRUE(bitwiseEqual(reference, planned))
                    << nx << "x" << ny << " kind " << static_cast<int>(kind)
                    << " threads " << GetParam();
            }
        }
    }
}

TEST_P(PlanThreads, TransformColsMatchesUnplannedBitwise)
{
    const std::pair<int, int> shapes[] = {{128, 64}, {2, 1024}, {1024, 2}};
    for (std::size_t shape = 0; shape < std::size(shapes); ++shape) {
        const auto [nx, ny] = shapes[shape];
        for (const Dct::Kind kind : kKinds) {
            for (const auto &map :
                 inputs(static_cast<std::size_t>(nx) * ny,
                        600 + 8 * shape + static_cast<std::size_t>(kind))) {
                std::vector<double> reference = map;
                std::vector<double> planned = map;
                oracle::transformColsUnplanned(reference, nx, ny, kind,
                                               pool());
                DctScratch scratch;
                DctPlan(ny).transformCols(planned, nx, ny, kind, pool(),
                                          scratch);
                EXPECT_TRUE(bitwiseEqual(reference, planned))
                    << nx << "x" << ny << " kind " << static_cast<int>(kind)
                    << " threads " << GetParam();
            }
        }
    }
}

TEST_P(PlanThreads, RepeatedSolvesReuseScratchBitwise)
{
    // Neither the solver's coefficient map and transform scratch nor a
    // reused Solution may carry state between solves: solving A, then
    // B, then A into one Solution must give, each time, what a fresh
    // solver writes into a fresh Solution.
    const int n = 64;
    const auto a = randomVector(static_cast<std::size_t>(n) * n, 800);
    const auto b = randomVector(static_cast<std::size_t>(n) * n, 801);
    const auto fresh = [&](const std::vector<double> &density) {
        PoissonSolver::Solution sol;
        PoissonSolver(n, n, 2000.0, 2000.0, pool()).solve(density, sol);
        return sol;
    };
    const PoissonSolver::Solution fresh_a = fresh(a);
    const PoissonSolver::Solution fresh_b = fresh(b);

    const PoissonSolver solver(n, n, 2000.0, 2000.0, pool());
    PoissonSolver::Solution reused;
    for (const char input : {'A', 'B', 'A'}) {
        solver.solve(input == 'A' ? a : b, reused);
        const PoissonSolver::Solution &expected =
            input == 'A' ? fresh_a : fresh_b;
        EXPECT_TRUE(bitwiseEqual(reused.fieldX, expected.fieldX)) << input;
        EXPECT_TRUE(bitwiseEqual(reused.fieldY, expected.fieldY)) << input;
    }
}

// 3 and 7 threads split the lines into chunk spans that are not a
// multiple of the pass tile.
INSTANTIATE_TEST_SUITE_P(Threads, PlanThreads,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(Plan, RectangularMapsUseBothLengths)
{
    // A non-square map exercises distinct row/column plans through one
    // shared scratch, mirroring a rectangular Poisson grid.
    const int nx = 32;
    const int ny = 256;
    const auto map =
        randomVector(static_cast<std::size_t>(nx) * ny, 900);
    std::vector<double> reference = map;
    std::vector<double> planned = map;
    oracle::transformRowsUnplanned(reference, nx, ny, Dct::Kind::Dct2,
                                   nullptr);
    oracle::transformColsUnplanned(reference, nx, ny,
                                   Dct::Kind::CosSeries, nullptr);
    DctScratch scratch;
    DctPlan(nx).transformRows(planned, nx, ny, Dct::Kind::Dct2, nullptr,
                              scratch);
    DctPlan(ny).transformCols(planned, nx, ny, Dct::Kind::CosSeries,
                              nullptr, scratch);
    EXPECT_TRUE(bitwiseEqual(reference, planned));
}

TEST(Plan, NonPowerOfTwoLengthPanics)
{
    EXPECT_THROW(FftPlan(12), std::logic_error);
    EXPECT_THROW(DctPlan(10), std::logic_error);
}

} // namespace
} // namespace qplacer
