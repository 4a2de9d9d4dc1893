/**
 * @file
 * Clock-domain conversions, including the 1:4 buffer-device ratio.
 */

#include <gtest/gtest.h>

#include "sim/clock.h"

namespace {

using sd::ClockDomain;
using sd::kBufferClockPeriod;
using sd::kDramClockPeriod;

TEST(Clock, PeriodAndCycles)
{
    ClockDomain clk(625); // 1600 MHz
    EXPECT_EQ(clk.period(), 625u);
    EXPECT_EQ(clk.cyclesAt(0), 0u);
    EXPECT_EQ(clk.cyclesAt(624), 0u);
    EXPECT_EQ(clk.cyclesAt(625), 1u);
    EXPECT_EQ(clk.tickOf(10), 6250u);
}

TEST(Clock, NextEdge)
{
    ClockDomain clk(100);
    EXPECT_EQ(clk.nextEdge(0), 0u);
    EXPECT_EQ(clk.nextEdge(1), 100u);
    EXPECT_EQ(clk.nextEdge(100), 100u);
    EXPECT_EQ(clk.nextEdge(101), 200u);
}

TEST(Clock, FromMHz)
{
    const auto clk = ClockDomain::fromMHz(1600.0);
    EXPECT_EQ(clk.period(), 625u);
    const auto slow = ClockDomain::fromMHz(400.0);
    EXPECT_EQ(slow.period(), 2500u);
}

TEST(Clock, BufferDeviceRunsAtQuarterRate)
{
    const ClockDomain dram(kDramClockPeriod);
    const ClockDomain buffer(kBufferClockPeriod);
    EXPECT_EQ(buffer.period(), 4 * dram.period());
    // Four DRAM command slots fit in one buffer-device cycle.
    EXPECT_EQ(dram.cyclesAt(buffer.period()), 4u);
}

} // namespace
