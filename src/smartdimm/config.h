/**
 * @file
 * SmartDIMM buffer-device configuration (paper defaults, Sec. VI):
 * 8 MB Scratchpad, 8 MB Config Memory, 4 KB pages, 12288 translation
 * entries (3-ary cuckoo sized 3x the 4096 required entries), 8-entry
 * insertion CAM, buffer device at 1/4 the DRAM clock.
 */

#ifndef SD_SMARTDIMM_CONFIG_H
#define SD_SMARTDIMM_CONFIG_H

#include <cstdint>

#include "common/types.h"

namespace sd::smartdimm {

/** Config Memory capacity (paper: 8 MB). */
inline constexpr std::size_t kConfigMemoryBytes = 8ULL << 20;

/** Per-source-page context slot (paper: 1 KB for TLS). */
inline constexpr std::size_t kContextBytes = 1024;

/** Translation Table entries (3x the 4096 required -> <33% load). */
inline constexpr std::size_t kTranslationEntries = 12288;

/** Fast-insert CAM entries in front of the cuckoo table. */
inline constexpr std::size_t kCamEntries = 8;

/**
 * DSA latency per 64-byte cacheline in buffer-device cycles.
 * Measured slack on AxDIMM exceeds 1 us (Sec. IV-D), so anything
 * well under 400 cycles (1 us at 400 MHz) never stalls the host.
 */
inline constexpr Cycles kDsaLineLatency = 24;

/** Size of the MMIO config window. */
inline constexpr std::size_t kMmioBytes = 1ULL << 20;

/** The per-device settings a rig may vary. */
struct SmartDimmConfig
{
    /** Scratchpad capacity (paper: 8 MB = 2048 pages). */
    std::size_t scratchpad_bytes = 8ULL << 20;

    /** Base of the MMIO config window within the DIMM address range. */
    Addr mmio_base = 0xF000'0000ULL;

    std::size_t
    scratchpadPages() const
    {
        return scratchpad_bytes / kPageSize;
    }
};

/** MMIO register offsets (64-byte-register granularity). */
enum class MmioReg : Addr
{
    kFreePages = 0x000,     ///< RO: current free scratchpad pages
    kRegister = 0x040,      ///< WO: (sbuf, dbuf, context ref) registration
    kPendingList = 0x080,   ///< RO: pending (un-recycled) page addresses
    kContextWrite = 0x0C0,  ///< WO: streaming context payload writes
    kFaultStatus = 0x100,   ///< RO: rejected registrations, lie count
    kQueueDoorbell = 0x140, ///< WO: work-queue descriptor submission ring
    kQueueComplete = 0x180, ///< WO: work-queue descriptor completion ack
    kQueueStatus = 0x1C0,   ///< RO: per-queue submitted/completed counts
};

/** Work queues the device tracks in its kQueueStatus register (one
 *  count word + 7 per-queue words fit the 64-byte read). */
inline constexpr std::size_t kMaxDeviceQueues = 7;

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_CONFIG_H
