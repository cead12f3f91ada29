/**
 * @file
 * Fixed-size worker pool with a chunked parallel-for.
 *
 * The pool splits an index range [0, n) into exactly threads() chunks
 * with boundaries that depend only on (n, threads()) and runs one
 * chunk per thread (chunk 0 on the caller). With threads() == 1 (or a
 * null pool passed to the free helpers) the range runs serially as a
 * single chunk on the calling thread.
 *
 * The threaded kernels never combine per-chunk partial results: each
 * output element has one owner, which accumulates its contributions in
 * item order, and sums over a whole range run serially. So the split,
 * and with it the thread count, changes how fast a region runs, never
 * its bits.
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

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qplacer {

/** Fixed pool of worker threads executing chunked loops. */
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
     * tiny ranges.
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

} // namespace qplacer

#endif // QPLACER_UTIL_THREAD_POOL_HPP
