/**
 * @file
 * On-DIMM Scratchpad (Sec. IV-B/IV-C): a 64-byte-addressable SRAM
 * allocated at 4 KB page granularity. DSA results stage here until the
 * LLC's writeback of the destination buffer drains them to DRAM
 * (Self-Recycle); a page frees once every cacheline is drained.
 *
 * Concurrency contract: single-owner. A scratchpad belongs to one
 * buffer device, which belongs to one simulated channel, which is
 * driven by exactly one thread's EventQueue. Mutating entry points
 * spot-check the contract with a SingleOwnerChecker.
 */

#ifndef SD_SMARTDIMM_SCRATCHPAD_H
#define SD_SMARTDIMM_SCRATCHPAD_H

#include <bitset>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace sd::smartdimm {

/** Scratchpad activity counters. */
struct ScratchpadStats
{
    std::uint64_t allocs = 0;
    std::uint64_t self_recycles = 0;  ///< lines drained by wrCAS
    std::uint64_t force_recycles = 0; ///< pages freed by Force-Recycle
    std::uint64_t reads = 0;          ///< S10 service from scratchpad
    std::uint64_t writes = 0;         ///< DSA result stores
    std::uint64_t peak_pages = 0;
};

/**
 * Page-granular scratchpad. Each page tracks per-line state:
 *  - `computed`: the DSA has produced this line's result
 *  - `pending`:  the line has not yet been drained to DRAM
 * A page recycles when no pending lines remain.
 */
class Scratchpad
{
  public:
    /** @param pages capacity in 4 KB pages (paper: 2048). */
    explicit Scratchpad(std::size_t pages);

    /** Allocate one page. @return page slot, or nullopt when full. */
    std::optional<std::uint32_t> allocate();

    /** @return free page count (the MMIO freePages register). */
    std::size_t freePages() const { return free_.size(); }

    /** @return number of allocated (pending) pages. */
    std::size_t livePages() const;

    /** Bytes currently held (occupancy metric for Fig. 10). */
    std::size_t occupancyBytes() const
    {
        return livePages() * kPageSize;
    }

    /** Store a DSA result line into page slot @p page, line @p line. */
    void writeLine(std::uint32_t page, unsigned line,
                   const std::uint8_t *data, bool computed = true);

    /** Read a line (S10: serving a rdCAS from the scratchpad). */
    void readLine(std::uint32_t page, unsigned line, std::uint8_t *dst);

    /** @return true when the line's DSA computation has finished. */
    bool lineComputed(std::uint32_t page, unsigned line) const;

    /** @return true when the line has not yet drained to DRAM. */
    bool linePending(std::uint32_t page, unsigned line) const;

    /** Mark a line computed without rewriting data (tag updates). */
    void markComputed(std::uint32_t page, unsigned line);

    /**
     * Self-Recycle step: a wrCAS to a line staged here drains it.
     * Copies the staged data to @p drained (the bytes that must land
     * in DRAM instead of the host's write burst) and clears the
     * pending bit. @return true when the whole page just freed.
     */
    bool drainLine(std::uint32_t page, unsigned line,
                   std::uint8_t *drained);

    /** Force-Recycle: drain every pending line of @p page into
     *  @p page_data (4 KB) and free it. */
    void forceDrainPage(std::uint32_t page, std::uint8_t *page_data);

    /** Return a just-allocated page unused (registration rollback). */
    void release(std::uint32_t page);

    /** Pending (allocated) page slots — the MMIO pending list. */
    std::vector<std::uint32_t> pendingPages() const;

    const ScratchpadStats &stats() const { return stats_; }
    void resetStats() { stats_ = ScratchpadStats{}; }

  private:
    struct Page
    {
        std::vector<std::uint8_t> data;
        std::bitset<kLinesPerPage> pending;  ///< not yet drained
        std::bitset<kLinesPerPage> computed; ///< DSA result ready
        bool allocated = false;
    };

    void freePage(std::uint32_t page);

    /** Runtime spot-check of the single-owner contract. */
    SingleOwnerChecker owner_;

    std::vector<Page> pages_;
    std::vector<std::uint32_t> free_; ///< LIFO free list
    ScratchpadStats stats_;
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_SCRATCHPAD_H
