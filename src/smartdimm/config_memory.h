/**
 * @file
 * Config Memory (Sec. IV-C / V): a 64-byte-addressable block memory
 * holding a fixed context slot per registered source page (1 KB for
 * TLS: key schedule H powers, EIV, offsets). For the Deflate DSA the
 * same array doubles as the 8-bank candidate store, so a bank-port
 * model is exposed for the conflict accounting.
 */

#ifndef SD_SMARTDIMM_CONFIG_MEMORY_H
#define SD_SMARTDIMM_CONFIG_MEMORY_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace sd::smartdimm {

/** Config Memory counters. */
struct ConfigMemoryStats
{
    std::uint64_t context_writes = 0;
    std::uint64_t context_reads = 0;
    std::uint64_t slot_allocs = 0;
};

/** Page-slot allocator + context storage. */
class ConfigMemory
{
  public:
    /**
     * @param total_bytes capacity (paper: 8 MB)
     * @param context_bytes per-page context size (paper: 1 KB)
     */
    ConfigMemory(std::size_t total_bytes, std::size_t context_bytes);

    /** Allocate a context slot. @return slot id or nullopt when full. */
    std::optional<std::uint32_t> allocate();

    /** Release a slot after its offload completes. */
    void release(std::uint32_t slot);

    /** Write @p len bytes of context at @p offset within @p slot. */
    void write(std::uint32_t slot, std::size_t offset,
               const std::uint8_t *data, std::size_t len);

    /** Read context bytes back (DSA-side). */
    void read(std::uint32_t slot, std::size_t offset, std::uint8_t *dst,
              std::size_t len) const;

    const ConfigMemoryStats &stats() const { return stats_; }
    void resetStats() { stats_ = ConfigMemoryStats{}; }

  private:
    std::size_t slots_;
    std::size_t context_bytes_;
    std::vector<std::uint8_t> data_;
    std::vector<std::uint32_t> free_;
    ConfigMemoryStats stats_;
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_CONFIG_MEMORY_H
