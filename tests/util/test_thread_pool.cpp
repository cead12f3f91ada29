/**
 * @file
 * ThreadPool: thread-count resolution, chunk bounds, serial fallback,
 * pool reuse, and error propagation.
 */

#include <atomic>
#include <numeric>
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

TEST(ThreadPool, ReusableAcrossManyRegions)
{
    ThreadPool pool(4);
    for (int round = 0; round < 200; ++round) {
        std::vector<int> out(100, -1);
        parallelFor(&pool, out.size(),
                    [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                            out[i] = static_cast<int>(i);
                    });
        std::vector<int> expected(100);
        std::iota(expected.begin(), expected.end(), 0);
        EXPECT_EQ(out, expected) << "round " << round;
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
        std::atomic<std::size_t> covered = 0;
        pool.forChunks(10, [&](int, std::size_t begin, std::size_t end) {
            covered.fetch_add(end - begin);
        });
        EXPECT_EQ(covered.load(), 10u);
    }
}

TEST(ThreadPool, EmptyRangeDoesNothing)
{
    ThreadPool pool(4);
    bool called = false;
    pool.forChunks(0, [&](int, std::size_t, std::size_t) {
        called = true;
    });
    parallelFor(&pool, 0, [&](std::size_t, std::size_t) {
        called = true;
    });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, EmptyChunksContributeNothing)
{
    // Three items over seven threads: four chunks run nothing, and the
    // body is called only for the three that do.
    ThreadPool pool(7);
    std::atomic<int> calls = 0;
    std::vector<std::atomic<int>> visits(3);
    pool.forChunks(3, [&](int, std::size_t begin, std::size_t end) {
        calls.fetch_add(1);
        EXPECT_LT(begin, end);
        for (std::size_t i = begin; i < end; ++i)
            visits[i].fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 3);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(visits[i].load(), 1);
}
