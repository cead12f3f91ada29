/**
 * @file
 * Fixed-size worker pool with a deterministic parallel-for, and the
 * chunk-ordered reduce/scatter helpers every threaded kernel combines
 * its partial results through.
 *
 * The pool splits an index range [0, n) into exactly threads() chunks
 * with boundaries that depend only on (n, threads()) and runs one
 * chunk per thread (chunk 0 on the caller). parallelReduce folds the
 * per-chunk partials, and parallelScatter the per-chunk slices, in
 * chunk-index order, so every parallel region is bitwise-deterministic
 * for a fixed thread count. Different thread counts split the sums
 * differently: one evaluation differs only in rounding, but those
 * differences compound over a placement's iterations, so whole layouts
 * do differ between thread counts.
 *
 * With threads() == 1 (or a null pool passed to the free helpers) the
 * range runs serially as a single chunk on the calling thread.
 *
 * Usage notes:
 *  - parallelFor bodies must not throw for control flow; an escaping
 *    exception is captured and rethrown on the caller after the region
 *    completes, but the partial work is unspecified.
 *  - Regions are not reentrant: a body must not start another region
 *    on the same pool.
 *  - The global Logger serializes emits behind a mutex, so bodies may
 *    log when they must (batch-session jobs do) -- but a lock in a hot
 *    loop serializes the region, so keep per-chunk bodies log-free.
 */

#ifndef QPLACER_UTIL_THREAD_POOL_HPP
#define QPLACER_UTIL_THREAD_POOL_HPP

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

namespace qplacer {

/** Fixed pool of worker threads executing deterministic chunked loops. */
class ThreadPool
{
  public:
    /** Body of a chunked loop: (chunk index, begin, end). */
    using ChunkBody = std::function<void(int, std::size_t, std::size_t)>;

    /**
     * @param threads Worker count; <= 0 picks resolveThreadCount(0)
     *                (hardware concurrency, capped). A pool of size 1
     *                spawns no threads and runs everything inline.
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads (and chunks per region); always >= 1. */
    int threads() const { return threads_; }

    /**
     * Map a requested thread count to an effective one: positive
     * requests are honored (capped at kMaxThreads), zero or negative
     * requests resolve to the hardware concurrency capped at
     * kAutoThreadCap. Always >= 1.
     */
    static int resolveThreadCount(int requested);

    /** Start of chunk @p chunk when [0, n) is split @p chunks ways. */
    static std::size_t chunkBegin(std::size_t n, int chunks, int chunk);

    /**
     * Run @p body over [0, n) split into threads() fixed chunks, one
     * per thread; chunk 0 runs on the calling thread. Returns after
     * every chunk has finished. Empty chunks are skipped.
     *
     * When n < @p serial_below the whole range runs inline as a single
     * chunk 0 instead: waking the workers costs more than the loop for
     * tiny ranges. The decision depends only on (n, serial_below), so
     * determinism for a fixed thread count is preserved.
     */
    void forChunks(std::size_t n, const ChunkBody &body,
                   std::size_t serial_below = 0);

    /** Hard cap on explicitly requested thread counts. */
    static constexpr int kMaxThreads = 256;

    /** Cap applied to the automatic (hardware concurrency) choice. */
    static constexpr int kAutoThreadCap = 16;

    /**
     * Suggested serial_below thresholds by per-item cost. Calibrated
     * against a region wake/join cost of ~10us: below these counts the
     * serial loop beats waking the pool.
     */
    static constexpr std::size_t kGrainFine = 4096;  ///< Elementwise ops.
    static constexpr std::size_t kGrainMedium = 256; ///< Per-instance/net.
    static constexpr std::size_t kGrainCoarse = 64;  ///< 1-D transforms.

  private:
    void workerLoop(int chunk);

    int threads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    const ChunkBody *job_ = nullptr; ///< Current region, valid in-region.
    std::size_t jobN_ = 0;           ///< Range length of the region.
    std::uint64_t generation_ = 0;   ///< Bumped once per region.
    int pending_ = 0;                ///< Workers still inside the region.
    std::exception_ptr firstError_;  ///< First body exception, if any.
    bool stop_ = false;
};

/**
 * Chunk count a region over [0, n) actually uses: 1 for a null pool
 * or when the serial_below cutoff applies, pool->threads() otherwise.
 */
int parallelChunkCount(const ThreadPool *pool, std::size_t n,
                       std::size_t serial_below);

/**
 * Chunked loop over [0, n): body(chunk, begin, end). Serial single
 * chunk when @p pool is null (a direct call) or n < @p serial_below;
 * otherwise pool->forChunks. The pool sees the body through a lambda
 * holding one reference, which std::function stores without
 * allocating, so no region allocates for its body.
 */
template <class Body>
void
parallelForChunks(ThreadPool *pool, std::size_t n, const Body &body,
                  std::size_t serial_below = 0)
{
    if (n == 0)
        return;
    if (!pool) {
        body(0, std::size_t{0}, n);
        return;
    }
    pool->forChunks(
        n,
        [&body](int chunk, std::size_t begin, std::size_t end) {
            body(chunk, begin, end);
        },
        serial_below);
}

/** Plain parallel loop over [0, n): body(begin, end) per chunk. */
template <class Body>
void
parallelFor(ThreadPool *pool, std::size_t n, const Body &body,
            std::size_t serial_below = 0)
{
    parallelForChunks(
        pool, n,
        [&body](int, std::size_t begin, std::size_t end) {
            body(begin, end);
        },
        serial_below);
}

namespace detail {

/**
 * body(chunk, begin, end) of every chunk, in chunk order; T{} for a
 * chunk that ran nothing.
 */
template <class T, class Body>
std::vector<T>
chunkPartials(ThreadPool *pool, std::size_t n, std::size_t serial_below,
              const Body &body)
{
    std::vector<T> partial(static_cast<std::size_t>(
        parallelChunkCount(pool, n, serial_below)));
    parallelForChunks(
        pool, n,
        [&](int chunk, std::size_t begin, std::size_t end) {
            partial[static_cast<std::size_t>(chunk)] =
                body(chunk, begin, end);
        },
        serial_below);
    return partial;
}

/** op-fold of partial[0, count) in chunk order from +0, lane by lane. */
template <class T, class Op>
T
foldPartials(const T *partial, std::size_t count, const Op &op)
{
    T acc{};
    for (const T &p : std::span<const T>(partial, count)) {
        if constexpr (std::is_arithmetic_v<T>) {
            acc = op(acc, p);
        } else {
            for (std::size_t lane = 0; lane < acc.size(); ++lane)
                acc[lane] = op(acc[lane], p[lane]);
        }
    }
    return acc;
}

} // namespace detail

/**
 * Chunk-ordered reduction over [0, n). body(begin, end) returns its
 * chunk's partial: a double, or a std::array<double, K> of K
 * independent lanes. The partials are folded with @p op, lane by lane,
 * in chunk-index order starting from +0:
 *   result = op(...op(op(+0, p_0), p_1)..., p_last).
 * With the default op this is the sum, and since a sum that starts at
 * +0 never becomes -0, op(+0, p_0) == p_0 and the zero partial of a
 * chunk that ran nothing adds nothing. Any op for which +0 is neutral
 * on the partials works the same way (e.g. max of non-negatives).
 */
template <class Body, class Op = std::plus<>>
auto
parallelReduce(ThreadPool *pool, std::size_t n, const Body &body,
               std::size_t serial_below = 0, const Op &op = {})
{
    using T = std::invoke_result_t<const Body &, std::size_t, std::size_t>;
    if (parallelChunkCount(pool, n, serial_below) == 1) {
        // One chunk: its partial needs no per-chunk buffer.
        const T partial = n == 0 ? T{} : body(std::size_t{0}, n);
        return detail::foldPartials(&partial, 1, op);
    }
    const std::vector<T> partial = detail::chunkPartials<T>(
        pool, n, serial_below,
        [&](int, std::size_t begin, std::size_t end) {
            return body(begin, end);
        });
    return detail::foldPartials(partial.data(), partial.size(), op);
}

/**
 * Chunked scatter over [0, n) into @p out.
 * body(chunk, begin, end, slice) accumulates the items [begin, end)
 * into slice[0, out.size()), a zeroed array of its chunk's own. Chunk
 * 0's slice is @p out itself, so a region that runs as one chunk
 * allocates no slice and sums nothing. Otherwise each element ends as
 * the sum of the slices in chunk-index order.
 */
template <class T, class Body>
void
parallelScatter(ThreadPool *pool, std::size_t n, std::span<T> out,
                const Body &body, std::size_t serial_below = 0)
{
    const std::size_t width = out.size();
    const std::size_t chunks = static_cast<std::size_t>(
        parallelChunkCount(pool, n, serial_below));
    std::fill(out.begin(), out.end(), T{});
    std::vector<T> slices((chunks - 1) * width);
    parallelForChunks(
        pool, n,
        [&](int chunk, std::size_t begin, std::size_t end) {
            const auto c = static_cast<std::size_t>(chunk);
            T *slice =
                c == 0 ? out.data() : slices.data() + (c - 1) * width;
            body(chunk, begin, end, slice);
        },
        serial_below);
    if (chunks > 1) {
        parallelFor(
            pool, width,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    T acc = out[i];
                    for (std::size_t c = 1; c < chunks; ++c)
                        acc += slices[(c - 1) * width + i];
                    out[i] = acc;
                }
            },
            ThreadPool::kGrainFine);
    }
}

} // namespace qplacer

#endif // QPLACER_UTIL_THREAD_POOL_HPP
