/**
 * @file
 * Contention tests for the shared statistics primitives and the
 * single-owner runtime checker: exact counter accounting under 8
 * threads, LogHistogram accumulator balance, StatsRegistry
 * add/remove/collect races, and the SingleOwnerChecker contract
 * (handoff via reset(), panic on a cross-thread touch).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "sim/event_queue.h"
#include "trace/trace.h"

namespace {

using namespace sd;

constexpr unsigned kThreads = 8;
constexpr std::uint64_t kIncsPerThread = 100'000;

TEST(SharedCounter, EightThreadIncrementsSumExactly)
{
    Counter counter;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kIncsPerThread; ++i)
                counter.inc();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter.value(), kThreads * kIncsPerThread);
}

TEST(SharedCounter, MixedStepIncrementsBalance)
{
    Counter counter;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter, t] {
            for (std::uint64_t i = 0; i < kIncsPerThread; ++i)
                counter.inc(t + 1);
        });
    }
    for (auto &t : threads)
        t.join();
    // sum over t of (t+1) * kIncsPerThread
    const std::uint64_t expect =
        kIncsPerThread * (kThreads * (kThreads + 1) / 2);
    EXPECT_EQ(counter.value(), expect);
}

TEST(SharedLogHistogram, ConcurrentSamplesBalanceExactly)
{
    LogHistogram hist;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist, t] {
            for (std::uint64_t i = 1; i <= kIncsPerThread; ++i)
                hist.sample(i + t); // distinct ranges per thread
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(hist.count(), kThreads * kIncsPerThread);
    // Exact sum: each thread contributes sum(1..N) + N*t.
    std::uint64_t expect_sum = 0;
    for (std::uint64_t t = 0; t < kThreads; ++t)
        expect_sum += kIncsPerThread * (kIncsPerThread + 1) / 2 +
                      kIncsPerThread * t;
    EXPECT_EQ(hist.sum(), expect_sum);
    EXPECT_EQ(hist.min(), 1u);
    EXPECT_EQ(hist.max(), kIncsPerThread + kThreads - 1);

    // Bucket totals must balance the sample count exactly.
    std::uint64_t bucket_total = 0;
    for (const auto c : hist.buckets())
        bucket_total += c;
    EXPECT_EQ(bucket_total, hist.count());
}

TEST(SharedStatsRegistry, TraceRegistryAddRemoveCollectRaces)
{
    trace::StatsRegistry registry;
    std::atomic<bool> stop{false};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, t] {
            const std::string name = "component" + std::to_string(t);
            for (unsigned i = 0; i < 2000; ++i) {
                registry.add(name, [](trace::StatsBlock &b) {
                    b.scalar("x", 1.0);
                });
                (void)registry.collect();
                registry.remove(name);
            }
        });
    }
    // A dedicated reader dumps concurrently with the add/remove churn.
    threads.emplace_back([&registry, &stop] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::ostringstream sink;
            registry.dumpJson(sink);
        }
    });

    for (unsigned t = 0; t < kThreads; ++t)
        threads[t].join();
    stop.store(true, std::memory_order_relaxed);
    threads.back().join();

    EXPECT_EQ(registry.size(), 0u);
}

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
