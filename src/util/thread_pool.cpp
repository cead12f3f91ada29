#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace qplacer {

int
ThreadPool::resolveThreadCount(int requested)
{
    if (requested > 0)
        return std::min(requested, kMaxThreads);
    const unsigned hw = std::thread::hardware_concurrency();
    const int detected = hw > 0 ? static_cast<int>(hw) : 1;
    return std::clamp(detected, 1, kAutoThreadCap);
}

std::size_t
ThreadPool::chunkBegin(std::size_t n, int chunks, int chunk)
{
    // Boundaries depend only on (n, chunks): chunk i covers
    // [i*n/chunks, (i+1)*n/chunks), so sizes differ by at most one.
    return n * static_cast<std::size_t>(chunk) /
           static_cast<std::size_t>(chunks);
}

ThreadPool::ThreadPool(int threads)
    : threads_(resolveThreadCount(threads))
{
    workers_.reserve(static_cast<std::size_t>(threads_) - 1);
    for (int chunk = 1; chunk < threads_; ++chunk)
        workers_.emplace_back([this, chunk] { workerLoop(chunk); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop(int chunk)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        const ChunkBody *job = job_;
        const std::size_t n = jobN_;
        lock.unlock();

        std::exception_ptr error;
        const std::size_t begin = chunkBegin(n, threads_, chunk);
        const std::size_t end = chunkBegin(n, threads_, chunk + 1);
        if (begin < end) {
            try {
                (*job)(chunk, begin, end);
            } catch (...) {
                error = std::current_exception();
            }
        }

        lock.lock();
        if (error && !firstError_)
            firstError_ = error;
        if (--pending_ == 0)
            doneCv_.notify_one();
    }
}

void
ThreadPool::forChunks(std::size_t n, const ChunkBody &body,
                      std::size_t serial_below)
{
    if (n == 0)
        return;
    if (threads_ == 1 || n < serial_below) {
        body(0, 0, n);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (job_)
            panic("ThreadPool::forChunks: nested parallel region");
        job_ = &body;
        jobN_ = n;
        pending_ = threads_ - 1;
        ++generation_;
    }
    workCv_.notify_all();

    // The caller owns chunk 0; failures still wait for the workers so
    // the job state stays valid until everyone is out of the region.
    std::exception_ptr error;
    const std::size_t end0 = chunkBegin(n, threads_, 1);
    if (end0 > 0) {
        try {
            body(0, 0, end0);
        } catch (...) {
            error = std::current_exception();
        }
    }

    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [&] { return pending_ == 0; });
    job_ = nullptr;
    if (!error && firstError_)
        error = firstError_;
    firstError_ = nullptr;
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

int
parallelChunkCount(const ThreadPool *pool, std::size_t n,
                   std::size_t serial_below)
{
    return pool && n >= serial_below ? pool->threads() : 1;
}

} // namespace qplacer
