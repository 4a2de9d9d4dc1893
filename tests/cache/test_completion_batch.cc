/**
 * @file
 * MemorySystem's fixed-latency completion batches: a completion joins
 * the pending batch event only when it lands on the same tick and
 * nothing has been scheduled since that event, so callbacks still run
 * in the exact (tick, priority, seq) order one event each would give.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/memory_system.h"
#include "sim/event_queue.h"
#include "topo/topology.h"

namespace {

using namespace sd;

/** Records which callback ran, and at which tick. */
struct Log
{
    std::vector<std::string> order;
    std::vector<Tick> at;

    cache::MemorySystem::Callback
    note(std::string name)
    {
        return [this, name](Tick t) {
            order.push_back(name);
            at.push_back(t);
        };
    }
};

// Lines that are not in the LLC: flushing one is a clean flush.
constexpr Addr kLineA = 0x0;
constexpr Addr kLineB = 0x40;
constexpr Addr kLineC = 0x80;
constexpr Addr kLineD = 0xc0;

TEST(CompletionBatch, UnrelatedEventClosesTheBatch)
{
    topo::Topology topo;
    EventQueue &events = topo.events();
    cache::MemorySystem &memory = topo.memory();
    const Tick due = events.now() + cache::kFlushCleanLatency;

    Log log;
    memory.flushLine(kLineA, log.note("f1"));
    memory.flushLine(kLineB, log.note("f2"));
    events.schedule(due, [&log, &events] {
        log.order.push_back("X");
        log.at.push_back(events.now());
    });
    memory.flushLine(kLineC, log.note("f3"));

    const std::uint64_t before = events.executed();
    events.run();
    EXPECT_EQ(log.order,
              (std::vector<std::string>{"f1", "f2", "X", "f3"}));
    EXPECT_EQ(log.at, (std::vector<Tick>(4, due)));
    // f1 and f2 share one event; X and f3 have one each.
    EXPECT_EQ(events.executed() - before, 3u);
}

TEST(CompletionBatch, MemberCompletionOpensANewBatchAtItsOwnTick)
{
    topo::Topology topo;
    EventQueue &events = topo.events();
    cache::MemorySystem &memory = topo.memory();
    const Tick due = events.now() + cache::kFlushCleanLatency;

    Log log;
    memory.flushLine(kLineA, [&](Tick t) {
        log.note("f1")(t);
        memory.flushLine(kLineC, log.note("g1"));
    });
    memory.flushLine(kLineB, [&](Tick t) {
        log.note("f2")(t);
        memory.flushLine(kLineD, log.note("g2"));
    });

    const std::uint64_t before = events.executed();
    events.run();
    EXPECT_EQ(log.order,
              (std::vector<std::string>{"f1", "f2", "g1", "g2"}));
    const Tick later = due + cache::kFlushCleanLatency;
    EXPECT_EQ(log.at, (std::vector<Tick>{due, due, later, later}));
    // One event per batch: {f1, f2} and {g1, g2}.
    EXPECT_EQ(events.executed() - before, 2u);
}

TEST(CompletionBatch, ResetDropsTheOpenBatch)
{
    topo::Topology topo;
    EventQueue &events = topo.events();
    cache::MemorySystem &memory = topo.memory();

    Log log;
    memory.flushLine(kLineA, log.note("dropped"));
    events.reset();
    // As many schedules as the dropped batch had seen: a sequence
    // number alone would now read as "nothing scheduled since".
    events.schedule(0, [] {});
    memory.flushLine(kLineB, log.note("f"));

    events.run();
    EXPECT_EQ(log.order, (std::vector<std::string>{"f"}));
    EXPECT_EQ(log.at, (std::vector<Tick>{cache::kFlushCleanLatency}));
}

} // namespace
