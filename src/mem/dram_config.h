/**
 * @file
 * DDR4 geometry and timing parameters. The fixed values approximate a
 * DDR4-3200 RDIMM (the paper's testbed runs 6x 16 GB DIMMs at
 * 3200 MT/s).
 */

#ifndef SD_MEM_DRAM_CONFIG_H
#define SD_MEM_DRAM_CONFIG_H

#include <cstdint>

#include "common/types.h"

namespace sd::mem {

/** Rank shape of every DIMM: one rank of bank groups x banks. The
 *  address map bit-slices each of these, so each is a power of two. */
inline constexpr unsigned kRanks = 1;
inline constexpr unsigned kBankGroups = 4;
inline constexpr unsigned kBanksPerGroup = 4;

/** Per-bank row buffer; columns are addressed at 64-byte burst
 *  granularity. */
inline constexpr std::uint64_t kRowBytes = 8192;
inline constexpr std::uint64_t kLinesPerRow = kRowBytes / kCacheLineSize;

/** Shape of the memory system: channels x DIMMs, and each channel's
 *  capacity. */
struct DramGeometry
{
    unsigned channels = 1;
    unsigned dimms_per_channel = 1; ///< buffer devices sharing one bus
    std::uint64_t channel_bytes = 16ULL << 30; ///< capacity per channel

    /**
     * Flat bank-state size per channel controller. Each DIMM on the
     * channel owns an independent set of banks (its own chips), so the
     * controller tracks dimms x ranks x banks row states.
     */
    unsigned
    totalBanks() const
    {
        return dimms_per_channel * kRanks * kBankGroups * kBanksPerGroup;
    }

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

/** The timing every channel controller schedules with. */
inline constexpr DramTiming kDramTiming{};

} // namespace sd::mem

#endif // SD_MEM_DRAM_CONFIG_H
