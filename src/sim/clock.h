/**
 * @file
 * Clock domains. The DRAM command clock and SmartDIMM buffer-device
 * clock (1/4 the DRAM rate, Sec. IV-C) are both expressed as tick
 * periods so cross-domain conversions stay exact.
 */

#ifndef SD_SIM_CLOCK_H
#define SD_SIM_CLOCK_H

#include "common/log.h"
#include "common/types.h"

namespace sd {

/** A fixed-frequency clock domain expressed as a tick period. */
class ClockDomain
{
  public:
    /** @param period_ticks ticks (ps) per cycle; must be non-zero. */
    explicit ClockDomain(Tick period_ticks) : period_(period_ticks)
    {
        SD_ASSERT(period_ticks > 0, "zero clock period");
    }

    /** Construct from a frequency in MHz. */
    static ClockDomain
    fromMHz(double mhz)
    {
        return ClockDomain(static_cast<Tick>(1e6 / mhz + 0.5));
    }

    Tick period() const { return period_; }

    /** Cycles elapsed at tick @p t (truncating). */
    Cycles cyclesAt(Tick t) const { return t / period_; }

    /** Tick of the start of cycle @p c. */
    Tick tickOf(Cycles c) const { return c * period_; }

    /** Next cycle boundary at or after @p t. */
    Tick
    nextEdge(Tick t) const
    {
        return divCeil(t, period_) * period_;
    }

    /** Convert a cycle count to ticks. */
    Tick toTicks(Cycles c) const { return c * period_; }

  private:
    Tick period_;
};

/** DDR4-3200 command/address clock: 1600 MHz (3200 MT/s) -> 625 ps. */
inline constexpr Tick kDramClockPeriod = 625;

/** AxDIMM-style buffer device at 1/4 the DRAM clock: 400 MHz. */
inline constexpr Tick kBufferClockPeriod = 4 * kDramClockPeriod;

} // namespace sd

#endif // SD_SIM_CLOCK_H
