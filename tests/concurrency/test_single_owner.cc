/**
 * @file
 * The single-owner runtime checker: EventQueue::reset() hands a queue
 * to another thread, and a cross-thread touch without that handoff
 * panics.
 */

#include <gtest/gtest.h>

#include <thread>

#include "sim/event_queue.h"

namespace {

using namespace sd;

TEST(SingleOwner, ResetHandsTheQueueToAnotherThread)
{
    EventQueue queue;
    int ran = 0;
    queue.scheduleIn(10, [&ran] { ++ran; });
    queue.run();
    EXPECT_EQ(ran, 1);

    // reset() releases ownership: a different thread may now drive it.
    queue.reset();
    std::thread worker([&queue, &ran] {
        queue.scheduleIn(5, [&ran] { ++ran; });
        queue.run();
    });
    worker.join();
    EXPECT_EQ(ran, 2);
}

// TSan intercepts the fork-based death test machinery; the violation
// itself is a deliberate panic, not a data race, so only check it in
// plain builds.
#if !defined(__SANITIZE_THREAD__)
TEST(SingleOwnerDeath, CrossThreadTouchPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            EventQueue queue;
            queue.scheduleIn(1, [] {});
            std::thread trespasser(
                [&queue] { queue.scheduleIn(2, [] {}); });
            trespasser.join();
        },
        "single-owner contract violated");
}
#endif

} // namespace
