#include <gtest/gtest.h>

#include <thread>

#include "util/timer.hpp"

namespace qplacer {
namespace {

TEST(Timer, MeasuresElapsedTime)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(t.millis(), 8.0);
    EXPECT_LT(t.seconds(), 5.0);
}

TEST(Timer, ResetRestarts)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    t.reset();
    EXPECT_LT(t.millis(), 8.0);
}

} // namespace
} // namespace qplacer
