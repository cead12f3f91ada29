/**
 * @file
 * Wall-clock timing helpers used by the runtime benchmarks (Table II).
 */

#ifndef QPLACER_UTIL_TIMER_HPP
#define QPLACER_UTIL_TIMER_HPP

#include <chrono>

namespace qplacer {

/** Simple monotonic stopwatch. */
class Timer
{
  public:
    Timer() { reset(); }

    /** Restart the stopwatch. */
    void reset();

    /** Seconds elapsed since construction or the last reset(). */
    double seconds() const;

    /** Milliseconds elapsed. */
    double millis() const { return seconds() * 1e3; }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace qplacer

#endif // QPLACER_UTIL_TIMER_HPP
