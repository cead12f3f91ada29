/**
 * @file
 * Cooperative cancellation token.
 *
 * A CancelToken is a shared flag a driver sets and long-running
 * library code polls at safe points (optimizer iterations,
 * legalization attempts). Cancellation is cooperative: work stops at
 * the next poll, partial results stay in a consistent state, and the
 * caller learns about the early exit through a `cancelled` flag on
 * the result rather than an exception.
 *
 * A token may also carry a deadline: once the steady clock passes it,
 * cancelled() reads true without anyone calling cancel(), so a run
 * stops at its first poll after the deadline. expired() tells such a
 * stop apart from an explicit cancel(). A token without a deadline
 * never reads the clock.
 *
 * Thread-safe: cancel() may be called from any thread (e.g. an
 * observer callback or a signal-handling thread) while workers poll.
 */

#ifndef QPLACER_UTIL_CANCEL_HPP
#define QPLACER_UTIL_CANCEL_HPP

#include <atomic>
#include <chrono>
#include <limits>

namespace qplacer {

/** Shared one-way cancellation flag (resettable between runs). */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    CancelToken() = default;

    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Request cancellation; all holders observe it at the next poll. */
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    /** Cancel implicitly once Clock::now() reaches @p deadline. */
    void
    setDeadline(Clock::time_point deadline)
    {
        deadline_.store(deadline.time_since_epoch().count(),
                        std::memory_order_relaxed);
    }

    /** True once cancel() was called or the deadline passed. */
    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed) || expired();
    }

    /** True once the deadline passed (false without a deadline). */
    bool
    expired() const
    {
        const Clock::rep deadline =
            deadline_.load(std::memory_order_relaxed);
        return deadline != kNoDeadline &&
               Clock::now().time_since_epoch().count() >= deadline;
    }

    /** Re-arm the token for another run: no cancel, no deadline. */
    void
    reset()
    {
        cancelled_.store(false, std::memory_order_relaxed);
        deadline_.store(kNoDeadline, std::memory_order_relaxed);
    }

  private:
    static constexpr Clock::rep kNoDeadline =
        std::numeric_limits<Clock::rep>::max();

    std::atomic<bool> cancelled_{false};
    std::atomic<Clock::rep> deadline_{kNoDeadline};
};

} // namespace qplacer

#endif // QPLACER_UTIL_CANCEL_HPP
