/**
 * @file
 * DDR4 geometry and timing parameters. Defaults approximate a DDR4-3200
 * RDIMM (the paper's testbed runs 6x 16 GB DIMMs at 3200 MT/s).
 */

#ifndef SD_MEM_DRAM_CONFIG_H
#define SD_MEM_DRAM_CONFIG_H

#include <cstdint>

#include "common/types.h"

namespace sd::mem {

/**
 * Geometry of one memory channel. A rank is composed of bank groups x
 * banks; each row holds `row_bytes` and columns are addressed at
 * 64-byte burst granularity.
 */
struct DramGeometry
{
    unsigned channels = 1;
    unsigned dimms_per_channel = 1; ///< buffer devices sharing one bus
    unsigned ranks = 1;
    unsigned bank_groups = 4;
    unsigned banks_per_group = 4;
    std::uint64_t row_bytes = 8192;           ///< per-bank row buffer
    std::uint64_t channel_bytes = 16ULL << 30; ///< capacity per channel

    unsigned banksPerRank() const { return bank_groups * banks_per_group; }

    /**
     * Flat bank-state size per channel controller. Each DIMM on the
     * channel owns an independent set of banks (its own chips), so the
     * controller tracks dimms x ranks x banks row states.
     */
    unsigned
    totalBanks() const
    {
        return dimms_per_channel * ranks * banksPerRank();
    }

    std::uint64_t linesPerRow() const { return row_bytes / kCacheLineSize; }

    /** Capacity slice owned by one DIMM within its channel window. */
    std::uint64_t
    dimmBytes() const
    {
        return channel_bytes / dimms_per_channel;
    }
};

/**
 * Timing in DRAM command-clock cycles (DDR4-3200: tCK = 0.625 ns).
 * Values follow common 22-22-22 speed-bin datasheets.
 */
struct DramTiming
{
    Cycles tRCD = 22;  ///< ACT to internal read/write
    Cycles tRP = 22;   ///< PRE to ACT
    Cycles tRAS = 52;  ///< ACT to PRE
    Cycles tCL = 22;   ///< read CAS latency
    Cycles tCWL = 16;  ///< write CAS latency
    Cycles tBL = 4;    ///< burst occupancy on the data bus (BL8/2)
    Cycles tCCD_S = 4; ///< CAS-to-CAS, different bank group
    Cycles tCCD_L = 8; ///< CAS-to-CAS, same bank group
    Cycles tWR = 24;   ///< write recovery before PRE
    Cycles tRTW = 12;  ///< read-to-write bus turnaround
    Cycles tWTR = 18;  ///< write-to-read bus turnaround
};

/** Memory-controller queueing policy. */
struct ControllerConfig
{
    unsigned write_high_watermark = 48; ///< enter write-drain mode
    unsigned write_low_watermark = 16;  ///< leave write-drain mode

    // ALERT_N retry policy. Retries up to `alert_fast_retries` requeue
    // immediately (the common S13 case resolves within a few rdCAS
    // round trips); past that each requeue backs off exponentially so a
    // wedged DSA cannot monopolise the channel; at `alert_max_retries`
    // the read completes with MemStatus::kDegraded instead of aborting
    // the simulation.
    unsigned alert_fast_retries = 8;
    unsigned alert_max_retries = 64;
    Cycles alert_backoff_base = 64;   ///< first backoff (command clocks)
    Cycles alert_backoff_cap = 8192;  ///< backoff ceiling
};

} // namespace sd::mem

#endif // SD_MEM_DRAM_CONFIG_H
