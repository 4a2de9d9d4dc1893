/**
 * @file
 * Event-queue ordering, priorities, re-entrancy, the runUntil()/
 * reset() time contract, the zero-copy callback guarantee of the
 * pool-backed queue, and a differential check of the sorted lanes
 * against a reference (tick, priority, seq) order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/event_queue.h"

namespace {

using sd::EventQueue;
using sd::Rng;
using sd::Tick;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, FifoWithinSameTick)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, 200);
    q.schedule(5, [&] { order.push_back(1); }, 50);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(1, [&] {
        fired.push_back(q.now());
        q.scheduleIn(9, [&] { fired.push_back(q.now()); });
    });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{1, 10}));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    for (Tick t = 10; t <= 100; t += 10)
        q.schedule(t, [&] { ++count; });
    q.runUntil(50);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50u);
    q.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue q;
    q.runUntil(1000);
    EXPECT_EQ(q.now(), 1000u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue q;
    for (int i = 0; i < 3; ++i)
        q.schedule(i + 1, [] {});
    q.run();
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, ResetDropsPending)
{
    EventQueue q;
    int count = 0;
    q.schedule(5, [&] { ++count; });
    q.reset();
    q.run();
    EXPECT_EQ(count, 0);
    EXPECT_EQ(q.now(), 0u);
}

TEST(EventQueue, TieBreakIsTickThenPriorityThenSeq)
{
    EventQueue q;
    std::vector<int> order;
    // Same tick: priority wins over insertion order; equal priority
    // falls back to FIFO. An earlier tick beats both.
    q.schedule(5, [&] { order.push_back(3); }, 200);
    q.schedule(5, [&] { order.push_back(1); }, 50);
    q.schedule(5, [&] { order.push_back(2); }, 50);
    q.schedule(4, [&] { order.push_back(0); }, 900);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, RunUntilExecutesEventsScheduledDuringTheCall)
{
    EventQueue q;
    std::vector<Tick> fired;
    // The event at 10 schedules one at exactly the limit and one past
    // it; runUntil(50) must run the former and keep the latter.
    q.schedule(10, [&] {
        fired.push_back(q.now());
        q.schedule(50, [&] { fired.push_back(q.now()); });
        q.schedule(51, [&] { fired.push_back(q.now()); });
    });
    q.runUntil(50);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 50}));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{10, 50, 51}));
}

TEST(EventQueue, RunUntilBoundaryAllowsSameTickScheduling)
{
    EventQueue q;
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100u);
    // Scheduling at the boundary tick just reached is legal (earlier
    // is not): time never moves backwards across runUntil().
    bool ran = false;
    q.schedule(100, [&] { ran = true; });
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, ResetBehavesLikeFreshQueue)
{
    EventQueue q;
    int count = 0;
    q.schedule(5, [&] { ++count; });
    q.run();
    q.schedule(9, [&] { ++count; });
    q.reset();
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.executed(), 0u);
    EXPECT_TRUE(q.empty());
    // Ticks earlier than the pre-reset now() are legal again.
    q.schedule(1, [&] { ++count; });
    q.run();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, ResetReleasesOwnershipForThreadHandoff)
{
    EventQueue q;
    q.schedule(3, [] {});
    q.run();
    q.reset();
    // reset() is the single-owner handoff point: a different thread
    // may drive the queue afterwards without tripping the checker.
    int ran = 0;
    std::thread next_owner([&] {
        q.schedule(7, [&] { ++ran; });
        q.run();
    });
    next_owner.join();
    EXPECT_EQ(ran, 1);
}

#if !defined(__SANITIZE_THREAD__)
TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            EventQueue q;
            q.schedule(100, [] {});
            q.run();
            q.schedule(50, [] {});
        },
        "scheduling into the past");
}
#endif

/** Counts copies/moves to prove the pool never copies callables. */
struct CopyCounter
{
    int *copies;
    int *moves;
    bool *invoked;

    CopyCounter(int *c, int *m, bool *i) : copies(c), moves(m), invoked(i)
    {
    }
    CopyCounter(const CopyCounter &other)
        : copies(other.copies), moves(other.moves), invoked(other.invoked)
    {
        ++*copies;
    }
    CopyCounter(CopyCounter &&other) noexcept
        : copies(other.copies), moves(other.moves), invoked(other.invoked)
    {
        ++*moves;
    }
    void operator()() { *invoked = true; }
};

TEST(EventQueue, CallbacksAreMovedNeverCopied)
{
    // The seed implementation copied the std::function out of
    // priority_queue::top() on every executed event; the pool-backed
    // heap moves callables end to end. Guard against regression.
    int copies = 0;
    int moves = 0;
    bool invoked = false;
    EventQueue q;
    q.schedule(1, CopyCounter(&copies, &moves, &invoked));
    q.run();
    EXPECT_TRUE(invoked);
    EXPECT_EQ(copies, 0);
    EXPECT_GT(moves, 0);
}

TEST(EventQueue, CallbacksMayOwnMoveOnlyState)
{
    // Move-only captures need no shared_ptr shim: the callback owns
    // its state directly.
    EventQueue q;
    auto payload = std::make_unique<int>(42);
    int seen = 0;
    q.schedule(1, [p = std::move(payload), &seen] { seen = *p; });
    q.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, SlotPoolRecyclesUnderChurn)
{
    // A self-rescheduling chain should reuse one hot slot, not grow
    // the pool linearly with executed events.
    EventQueue q;
    int ticks = 0;
    std::function<void()> beat = [&] {
        if (++ticks < 1000)
            q.scheduleIn(10, beat);
    };
    q.schedule(10, beat);
    q.run();
    EXPECT_EQ(ticks, 1000);
    EXPECT_EQ(q.executed(), 1000u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PeriodicSelfRescheduling)
{
    EventQueue q;
    int ticks = 0;
    std::function<void()> beat = [&] {
        if (++ticks < 10)
            q.scheduleIn(100, beat);
    };
    q.schedule(100, beat);
    q.run();
    EXPECT_EQ(ticks, 10);
    EXPECT_EQ(q.now(), 1000u);
}

/**
 * Reference model for the differential order test: every event the
 * queue holds is also in a std::set ordered by (tick, priority, seq),
 * and each event checks on firing that it is the set's minimum.
 */
class ReferenceOrder
{
  public:
    using Key = std::tuple<Tick, int, std::uint64_t>;

    EventQueue q;
    Rng rng{0x0bde7};
    std::uint64_t fired = 0;
    std::uint64_t out_of_order = 0;

    /** Schedule an event that verifies its turn, then runs @p then. */
    template <typename F>
    void
    schedule(Tick when, int priority, F then)
    {
        const Key key{when, priority, seq_++};
        pending_.insert(key);
        q.schedule(
            when,
            [this, key, then]() mutable {
                fire(key);
                then();
            },
            priority);
        check();
    }

    /** pending() and empty() must agree with the model. */
    void
    check()
    {
        ASSERT_EQ(q.pending(), pending_.size());
        ASSERT_EQ(q.empty(), pending_.empty());
    }

    void
    reset()
    {
        q.reset();
        pending_.clear();
        seq_ = 0;
        check();
    }

  private:
    void
    fire(const Key &key)
    {
        ++fired;
        ASSERT_FALSE(pending_.empty());
        if (*pending_.begin() != key)
            ++out_of_order;
        EXPECT_EQ(q.now(), std::get<0>(key));
        pending_.erase(key);
        check();
    }

    std::set<Key> pending_;
    std::uint64_t seq_ = 0;
};

/** Reschedules itself a fixed delay later at a fixed priority. */
struct FixedDelay
{
    ReferenceOrder *m;
    Tick delay;
    int priority;

    void
    operator()() const
    {
        m->schedule(m->q.now() + delay, priority, *this);
    }
};

/**
 * Fires every @p period ticks and schedules three one-shot events at
 * its own tick, at priorities 0, 100 and 200 in a seeded order, plus
 * one at a random near delay and priority.
 */
struct SameTickBurst
{
    ReferenceOrder *m;
    Tick period;

    void
    operator()() const
    {
        int priorities[] = {0, 100, 200};
        for (int i = 2; i > 0; --i)
            std::swap(priorities[i], priorities[m->rng.below(
                                         static_cast<std::uint64_t>(i + 1))]);
        const Tick now = m->q.now();
        for (const int priority : priorities)
            m->schedule(now, priority, [] {});
        m->schedule(now + m->rng.below(5000),
                    static_cast<int>(m->rng.below(3)) * 100, [] {});
        m->schedule(now + period, 100, *this);
    }
};

/** Stage a far-future in-order batch and start the streams. */
void
stageMixedSchedules(ReferenceOrder &m)
{
    // In due order, two per tick (priority 100 before 200). The first
    // go to the still-shallow heap, lane 0 takes the rest, and its tail
    // then lies past every stream event.
    constexpr Tick kFar = 10'000'000;
    for (int i = 0; i < 600; ++i)
        m.schedule(m.q.now() + kFar + static_cast<Tick>(i / 2) * 50,
                   i % 2 ? 200 : 100, [] {});
    // Twenty fixed delays (more keys than keyed lanes, so some share a
    // lane and fall through to the heap), three of them at each of the
    // priorities 0, 100 and 200.
    const Tick delays[] = {1,   3,   7,    8,    10,   12,   16,
                           40,  64,  100,  128,  333,  500,  1000,
                           1024, 2048, 4000, 8000, 12000, 16000};
    int index = 0;
    for (const Tick delay : delays) {
        const Tick first = m.q.now() + 1 + m.rng.below(delay);
        m.schedule(first, 100, FixedDelay{&m, delay, 100});
        if (index++ % 7 == 0) {
            m.schedule(first, 0, FixedDelay{&m, delay, 0});
            m.schedule(first, 200, FixedDelay{&m, delay, 200});
        }
    }
    m.schedule(m.q.now() + 5, 100, SameTickBurst{&m, 777});
    m.schedule(m.q.now() + 11, 100, SameTickBurst{&m, 3001});
}

TEST(EventQueue, MatchesReferenceOrderUnderMixedSchedules)
{
    ReferenceOrder m;
    for (int round = 0; round < 2; ++round) {
        stageMixedSchedules(m);
        // runUntil slices of seeded length that mostly land between
        // events; each must stop exactly on its limit.
        for (int slice = 0; slice < 400; ++slice) {
            const Tick limit = m.q.now() + 1 + m.rng.below(997);
            ASSERT_EQ(m.q.runUntil(limit), limit);
            m.check();
        }
        ASSERT_GT(m.q.pending(), 600u);
        // reset() mid-run: the next round starts from a fresh queue.
        m.reset();
        EXPECT_EQ(m.q.now(), 0u);
    }
    EXPECT_GT(m.fired, 50'000u);
    EXPECT_EQ(m.out_of_order, 0u);
}

} // namespace
