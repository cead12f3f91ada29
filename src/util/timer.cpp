#include "util/timer.hpp"

namespace qplacer {

void
Timer::reset()
{
    start_ = std::chrono::steady_clock::now();
}

double
Timer::seconds() const
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start_).count();
}

} // namespace qplacer
