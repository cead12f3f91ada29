/**
 * @file
 * ThreadPool: chunking determinism, serial fallback, reductions, the
 * chunk-ordered reduce/scatter contract, and error propagation.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"

using namespace qplacer;

TEST(ThreadPool, ResolveThreadCountHonorsExplicitRequests)
{
    EXPECT_EQ(ThreadPool::resolveThreadCount(1), 1);
    EXPECT_EQ(ThreadPool::resolveThreadCount(4), 4);
    EXPECT_EQ(ThreadPool::resolveThreadCount(ThreadPool::kMaxThreads + 50),
              ThreadPool::kMaxThreads);
}

TEST(ThreadPool, ResolveThreadCountAutoIsCappedAndPositive)
{
    const int automatic = ThreadPool::resolveThreadCount(0);
    EXPECT_GE(automatic, 1);
    EXPECT_LE(automatic, ThreadPool::kAutoThreadCap);
    EXPECT_EQ(ThreadPool::resolveThreadCount(-3), automatic);
}

TEST(ThreadPool, ChunkBoundsCoverRangeInOrder)
{
    for (const int chunks : {1, 2, 3, 7, 8}) {
        for (const std::size_t n : {std::size_t(0), std::size_t(1),
                                    std::size_t(5), std::size_t(64),
                                    std::size_t(1000)}) {
            EXPECT_EQ(ThreadPool::chunkBegin(n, chunks, 0), 0u);
            EXPECT_EQ(ThreadPool::chunkBegin(n, chunks, chunks), n);
            for (int c = 0; c < chunks; ++c) {
                EXPECT_LE(ThreadPool::chunkBegin(n, chunks, c),
                          ThreadPool::chunkBegin(n, chunks, c + 1));
            }
        }
    }
}

TEST(ThreadPool, ForChunksVisitsEveryIndexExactlyOnce)
{
    for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        const std::size_t n = 137;
        std::vector<std::atomic<int>> visits(n);
        pool.forChunks(n, [&](int, std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                visits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ForChunksHandlesFewerItemsThanThreads)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> visits(3);
    pool.forChunks(3, [&](int, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            visits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPool, NullPoolRunsSerially)
{
    std::vector<int> order;
    parallelForChunks(nullptr, 10,
                      [&](int chunk, std::size_t begin, std::size_t end) {
                          EXPECT_EQ(chunk, 0);
                          for (std::size_t i = begin; i < end; ++i)
                              order.push_back(static_cast<int>(i));
                      });
    std::vector<int> expected(10);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ReduceIsDeterministicPerThreadCount)
{
    // Sums ill-conditioned enough that accumulation order matters in
    // the last bits: identical runs must agree exactly.
    const std::size_t n = 10000;
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i)
        values[i] = (i % 2 ? 1.0 : -1.0) * 1e12 / (1.0 + i);

    auto sum_with = [&](ThreadPool *pool) {
        return parallelReduce(pool, n,
                              [&](std::size_t begin, std::size_t end) {
                                  double acc = 0.0;
                                  for (std::size_t i = begin; i < end; ++i)
                                      acc += values[i];
                                  return acc;
                              });
    };

    const double serial = sum_with(nullptr);
    for (const int threads : {2, 8}) {
        ThreadPool pool(threads);
        const double first = sum_with(&pool);
        const double second = sum_with(&pool);
        EXPECT_EQ(first, second) << threads << " threads";
        EXPECT_NEAR(first, serial, 1e-3 * std::abs(serial) + 1e-9);
    }
}

TEST(ThreadPool, ReusableAcrossManyRegions)
{
    ThreadPool pool(4);
    for (int round = 0; round < 200; ++round) {
        const double sum = parallelReduce(
            &pool, 100, [&](std::size_t begin, std::size_t end) {
                double acc = 0.0;
                for (std::size_t i = begin; i < end; ++i)
                    acc += static_cast<double>(i);
                return acc;
            });
        EXPECT_DOUBLE_EQ(sum, 4950.0);
    }
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller)
{
    for (const int threads : {1, 4}) {
        ThreadPool pool(threads);
        EXPECT_THROW(
            pool.forChunks(100,
                           [&](int, std::size_t begin, std::size_t) {
                               if (begin == 0)
                                   throw std::runtime_error("chunk 0");
                           }),
            std::runtime_error);
        // The pool must still be usable afterwards.
        const double sum = parallelReduce(
            &pool, 10, [](std::size_t begin, std::size_t end) {
                return static_cast<double>(end - begin);
            });
        EXPECT_DOUBLE_EQ(sum, 10.0);
    }
}

TEST(ThreadPool, EmptyRangeDoesNothing)
{
    ThreadPool pool(4);
    bool called = false;
    pool.forChunks(0, [&](int, std::size_t, std::size_t) {
        called = true;
    });
    EXPECT_FALSE(called);
    EXPECT_DOUBLE_EQ(parallelReduce(&pool, 0,
                                    [](std::size_t, std::size_t) {
                                        return 1.0;
                                    }),
                     0.0);
}

namespace {

/**
 * Items whose sum depends on association: 1e16 + 1 rounds back to
 * 1e16, so where the chunk boundaries fall decides whether a 1.0 is
 * lost.
 */
const std::vector<double> kIllConditioned = {1e16, 1.0, -1e16, 1.0,
                                             1.0,  1e16, 1.0, -1e16};

/**
 * The combine rule spelled out: each chunk sums its items from +0, and
 * the chunk sums are added to +0 in chunk-index order.
 */
double
chunkOrderedSum(const std::vector<double> &items, int chunks)
{
    double total = 0.0;
    for (int c = 0; c < chunks; ++c) {
        double partial = 0.0;
        for (std::size_t i = ThreadPool::chunkBegin(items.size(), chunks, c);
             i < ThreadPool::chunkBegin(items.size(), chunks, c + 1); ++i)
            partial += items[i];
        total += partial;
    }
    return total;
}

/** parallelReduce's sum of @p items over @p pool. */
double
reduceSum(ThreadPool *pool, const std::vector<double> &items)
{
    return parallelReduce(pool, items.size(),
                          [&](std::size_t begin, std::size_t end) {
                              double acc = 0.0;
                              for (std::size_t i = begin; i < end; ++i)
                                  acc += items[i];
                              return acc;
                          });
}

/** Every item scatters into out[0]; out[1] counts the items. */
void
scatterSum(ThreadPool *pool, const std::vector<double> &items,
           std::vector<double> &out)
{
    parallelScatter(
        pool, items.size(), std::span<double>(out),
        [&](int, std::size_t begin, std::size_t end, double *slice) {
            for (std::size_t i = begin; i < end; ++i) {
                slice[0] += items[i];
                slice[1] += 1.0;
            }
        });
}

} // namespace

TEST(ThreadPool, ReduceAndScatterFoldPartialsInChunkOrder)
{
    std::set<double> distinct;
    for (const int threads : {1, 2, 3, 4, 7}) {
        ThreadPool pool(threads);
        const double expected = chunkOrderedSum(kIllConditioned, threads);
        distinct.insert(expected);
        EXPECT_EQ(reduceSum(&pool, kIllConditioned), expected)
            << threads << " threads";
        std::vector<double> out(2, -5.0); // overwritten, not added to
        scatterSum(&pool, kIllConditioned, out);
        EXPECT_EQ(out[0], expected) << threads << " threads";
        EXPECT_EQ(out[1], 8.0);
    }
    // The items really are association-sensitive: some thread counts
    // disagree, so the equalities above pin the chunk order.
    EXPECT_GT(distinct.size(), 1u);
}

TEST(ThreadPool, ReduceFoldsEveryLaneWithTheGivenOp)
{
    const std::vector<double> items = {3.0, 9.0, 1.0, 4.0, 7.0, 2.0};
    for (const int threads : {1, 3, 4}) {
        ThreadPool pool(threads);
        const auto [sum, count] = parallelReduce(
            &pool, items.size(), [&](std::size_t begin, std::size_t end) {
                std::array<double, 2> lanes{};
                for (std::size_t i = begin; i < end; ++i) {
                    lanes[0] += items[i];
                    lanes[1] += 1.0;
                }
                return lanes;
            });
        EXPECT_EQ(sum, 26.0);
        EXPECT_EQ(count, 6.0);
        const double max = parallelReduce(
            &pool, items.size(),
            [&](std::size_t begin, std::size_t end) {
                return *std::max_element(items.begin() + begin,
                                         items.begin() + end);
            },
            0, [](double a, double b) { return std::max(a, b); });
        EXPECT_EQ(max, 9.0);
    }
}

TEST(ThreadPool, ScatterWithOneChunkWritesStraightIntoTheOutput)
{
    ThreadPool single(1);
    ThreadPool wide(4);
    // A single-thread pool, a null pool, and a range below the serial
    // cutoff all run one chunk, whose slice is the output itself.
    for (ThreadPool *pool : {&single, static_cast<ThreadPool *>(nullptr),
                             &wide}) {
        std::vector<double> out(3, 7.0);
        int calls = 0;
        parallelScatter(
            pool, 5, std::span<double>(out),
            [&](int chunk, std::size_t begin, std::size_t end,
                double *slice) {
                ++calls;
                EXPECT_EQ(chunk, 0);
                EXPECT_EQ(slice, out.data());
                EXPECT_EQ(slice[0], 0.0); // zeroed before the body
                for (std::size_t i = begin; i < end; ++i)
                    slice[i % 3] += 1.0;
            },
            /*serial_below=*/100);
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(out, (std::vector<double>{2.0, 2.0, 1.0}));
    }
}

TEST(ThreadPool, ScatterSlicesAreZeroedAndPrivatePerChunk)
{
    ThreadPool pool(4);
    std::vector<double> out(4);
    std::vector<const double *> slices(4, nullptr);
    parallelScatter(&pool, 8, std::span<double>(out),
                    [&](int chunk, std::size_t begin, std::size_t end,
                        double *slice) {
                        const auto c = static_cast<std::size_t>(chunk);
                        slices[c] = slice;
                        for (std::size_t k = 0; k < 4; ++k)
                            EXPECT_EQ(slice[k], 0.0);
                        for (std::size_t i = begin; i < end; ++i)
                            slice[c] += 1.0;
                    });
    EXPECT_EQ(slices[0], out.data());
    EXPECT_EQ(std::set<const double *>(slices.begin(), slices.end()).size(),
              4u);
    EXPECT_EQ(out, (std::vector<double>{2.0, 2.0, 2.0, 2.0}));
}

TEST(ThreadPool, EmptyChunksContributeNothing)
{
    // Three items over seven threads: four chunks run nothing.
    ThreadPool pool(7);
    const std::vector<double> items = {0.1, 0.2, 0.3};
    std::vector<double> out(2);
    std::atomic<int> calls = 0;
    parallelScatter(
        &pool, items.size(), std::span<double>(out),
        [&](int, std::size_t begin, std::size_t end, double *slice) {
            calls.fetch_add(1);
            for (std::size_t i = begin; i < end; ++i)
                slice[0] += items[i];
        });
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(out[0], chunkOrderedSum(items, 7));
    EXPECT_EQ(out[1], 0.0);
    EXPECT_EQ(reduceSum(&pool, items), chunkOrderedSum(items, 7));
}

TEST(ThreadPool, ThrowingScatterBodyPropagatesAndPoolStaysUsable)
{
    for (const int threads : {1, 4}) {
        ThreadPool pool(threads);
        std::vector<double> out(4);
        EXPECT_THROW(parallelScatter(&pool, 100, std::span<double>(out),
                                     [](int chunk, std::size_t,
                                        std::size_t, double *) {
                                         if (chunk == 0)
                                             throw std::runtime_error(
                                                 "chunk 0");
                                     }),
                     std::runtime_error);
        EXPECT_EQ(reduceSum(&pool, kIllConditioned),
                  chunkOrderedSum(kIllConditioned, threads));
        scatterSum(&pool, kIllConditioned, out);
        EXPECT_EQ(out[0], chunkOrderedSum(kIllConditioned, threads));
    }
}
