/**
 * @file
 * CxlLink unit tests: round-trip flight time, serialization at the
 * configured line rate, FIFO queueing on the shared wire, and the
 * kCxlLinkStall injection point with its conservation counters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.h"
#include "mem/cxl_link.h"
#include "sim/event_queue.h"

namespace {

using namespace sd;
using mem::CxlLink;
using mem::CxlLinkConfig;

/**
 * Ship @p bytes over @p link and run @p fn with the arrival tick as an
 * event at that tick — the way MemorySystem delivers far completions.
 */
template <typename Fn>
void
ship(EventQueue &events, CxlLink &link, std::size_t bytes, Fn fn)
{
    const Tick at = link.transfer(bytes);
    events.schedule(at, [fn, at]() mutable { fn(at); });
}

TEST(CxlLink, ChargesRoundTripPlusSerialization)
{
    EventQueue events;
    CxlLinkConfig config;
    config.round_trip_ns = 600.0;
    config.gbps = 32.0;
    CxlLink link(events, config);

    // 600 ns round trip = 600'000 ticks; 64 B at 32 GB/s = 2'000 ticks.
    EXPECT_EQ(link.roundTripTicks(), 600'000);

    Tick delivered = 0;
    ship(events, link, kCacheLineSize, [&](Tick at) { delivered = at; });
    events.run();
    EXPECT_EQ(delivered, 600'000 + 2'000);
    EXPECT_EQ(link.stats().transfers, 1u);
    EXPECT_EQ(link.stats().bytes, kCacheLineSize);
    EXPECT_EQ(link.stats().queued, 0u);
}

TEST(CxlLink, FasterLinkSerializesSooner)
{
    EventQueue events;
    CxlLinkConfig slow;
    slow.gbps = 8.0;
    CxlLinkConfig fast;
    fast.gbps = 64.0;
    CxlLink slow_link(events, slow);
    CxlLink fast_link(events, fast);

    Tick slow_at = 0, fast_at = 0;
    ship(events, slow_link, 4096, [&](Tick at) { slow_at = at; });
    ship(events, fast_link, 4096, [&](Tick at) { fast_at = at; });
    events.run();
    EXPECT_GT(slow_at, fast_at);
}

TEST(CxlLink, BackToBackTransfersQueueFifoOnTheWire)
{
    EventQueue events;
    CxlLinkConfig config;
    config.round_trip_ns = 300.0;
    config.gbps = 32.0;
    CxlLink link(events, config);

    std::vector<Tick> deliveries;
    for (int i = 0; i < 3; ++i)
        ship(events, link, kCacheLineSize,
                      [&](Tick at) { deliveries.push_back(at); });
    events.run();

    ASSERT_EQ(deliveries.size(), 3u);
    // FIFO: each flit waits for the wire, so deliveries are spaced by
    // exactly one serialization time (2'000 ticks at 64 B / 32 GB/s).
    EXPECT_EQ(deliveries[1] - deliveries[0], 2'000);
    EXPECT_EQ(deliveries[2] - deliveries[1], 2'000);
    EXPECT_EQ(link.stats().queued, 2u);
    EXPECT_EQ(link.stats().queue_ticks, 2'000 + 4'000);
    EXPECT_EQ(link.stats().busy_ticks, 3 * 2'000);
}

TEST(CxlLink, StallMidBurstKeepsArrivalsFifo)
{
    EventQueue events;
    CxlLinkConfig config;
    config.round_trip_ns = 300.0;
    config.gbps = 32.0;
    config.stall_ns = 250.0;
    CxlLink link(events, config);

    // The third of six back-to-back flits hits a CRC-retry episode.
    fault::FaultPlan plan(5);
    plan.add(fault::Site::kCxlLinkStall, /*skip=*/2, /*count=*/1);
    link.setFaultPlan(&plan);

    std::vector<Tick> returned;
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        returned.push_back(link.transfer(kCacheLineSize));
        const Tick at = returned.back();
        events.schedule(at, [&order, i] { order.push_back(i); });
    }
    events.run();

    ASSERT_EQ(link.stats().injected_stalls, 1u);
    // Arrival ticks strictly increase: the stall delays its own flit
    // and every flit queued behind it, never reordering them, so the
    // delivery events run in issue order.
    for (int i = 1; i < 6; ++i)
        EXPECT_LT(returned[i - 1], returned[i]) << "flit " << i;
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(returned[1] - returned[0], 2'000);
    EXPECT_EQ(returned[2] - returned[1], 250'000 + 2'000);
    EXPECT_EQ(returned[3] - returned[2], 2'000);
}

TEST(CxlLink, StallFaultAddsPenaltyAndCounts)
{
    EventQueue events;
    CxlLinkConfig config;
    config.round_trip_ns = 600.0;
    config.gbps = 32.0;
    config.stall_ns = 250.0;
    CxlLink link(events, config);

    fault::FaultPlan plan(11);
    plan.add(fault::Site::kCxlLinkStall, /*skip=*/0, /*count=*/1);
    link.setFaultPlan(&plan);

    Tick stalled = 0, clean = 0;
    ship(events, link, kCacheLineSize, [&](Tick at) { stalled = at; });
    events.run();
    ship(events, link, kCacheLineSize, [&](Tick at) { clean = at; });
    events.run();

    // The stalled transfer pays exactly one 250 ns retry episode on
    // top of serialization + round trip; the rule-exhausted clean one
    // (issued at the first delivery tick, wire already free) does not.
    EXPECT_EQ(stalled, 250'000 + 2'000 + 600'000);
    EXPECT_EQ(clean, stalled + 2'000 + 600'000);
    EXPECT_EQ(link.stats().injected_stalls, 1u);
    EXPECT_EQ(link.stats().injected_stalls,
              plan.injected(fault::Site::kCxlLinkStall));
}

TEST(CxlLink, ScopedRuleRespectsChannelScope)
{
    EventQueue events;
    CxlLink link(events, CxlLinkConfig{});
    link.setFaultScope({/*channel=*/2, /*dimm=*/-1});

    auto plan = fault::FaultPlan::fromSpec("cxl[1]/cxl_link_stall", 3);
    ASSERT_TRUE(plan.has_value());
    link.setFaultPlan(&*plan);
    ship(events, link, kCacheLineSize, [](Tick) {});
    events.run();
    EXPECT_EQ(link.stats().injected_stalls, 0u)
        << "a rule scoped to channel 1 must not fire on channel 2";

    auto hit = fault::FaultPlan::fromSpec("cxl[2]/cxl_link_stall", 3);
    ASSERT_TRUE(hit.has_value());
    link.setFaultPlan(&*hit);
    ship(events, link, kCacheLineSize, [](Tick) {});
    events.run();
    EXPECT_EQ(link.stats().injected_stalls, 1u);
}

} // namespace
