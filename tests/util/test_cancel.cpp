/**
 * @file
 * CancelToken: an explicit cancel(), an optional deadline, and
 * reset() between runs. Labelled "service" with the daemon suites, so
 * the ThreadSanitizer job runs the cross-thread case.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "util/cancel.hpp"

namespace qplacer {
namespace {

using Clock = CancelToken::Clock;

TEST(CancelToken, NoDeadlineNeverExpires)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(token.expired());
}

TEST(CancelToken, PassedDeadlineCancelsAndExpires)
{
    CancelToken token;
    token.setDeadline(Clock::now() - std::chrono::milliseconds(1));
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(token.expired());
}

TEST(CancelToken, DeadlineFiresOnceTheClockReachesIt)
{
    CancelToken token;
    const auto deadline = Clock::now() + std::chrono::milliseconds(20);
    token.setDeadline(deadline);
    std::this_thread::sleep_until(deadline);
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(token.expired());
}

TEST(CancelToken, ResetClearsCancelAndDeadline)
{
    CancelToken token;
    token.setDeadline(Clock::now() - std::chrono::milliseconds(1));
    token.cancel();
    token.reset();
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(token.expired());
}

TEST(CancelToken, CancelBeforeTheDeadlineIsNotExpiry)
{
    CancelToken token;
    token.setDeadline(Clock::now() + std::chrono::hours(1));
    EXPECT_FALSE(token.cancelled());
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_FALSE(token.expired());
}

TEST(CancelToken, CancelFromAnotherThreadReachesThePoller)
{
    CancelToken token;
    token.setDeadline(Clock::now() + std::chrono::hours(1));
    std::thread canceller([&token] { token.cancel(); });
    while (!token.cancelled())
        std::this_thread::yield();
    canceller.join();
    EXPECT_FALSE(token.expired());
}

} // namespace
} // namespace qplacer
