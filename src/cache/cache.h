/**
 * @file
 * Set-associative writeback last-level cache with way partitioning
 * (Intel CAT analogue) and DDIO-style restricted allocation for device
 * DMA. This produces the two behaviours the paper leans on:
 * leak-to-DRAM under contention (Obs. 3 / Fig. 3) and the LLC
 * writebacks that self-recycle SmartDIMM's scratchpad (Fig. 10).
 */

#ifndef SD_CACHE_CACHE_H
#define SD_CACHE_CACHE_H

#include <array>
#include <cstdint>
#include <optional>

#include "common/types.h"

namespace sd::cache {

/** Who is allocating: decides which ways are eligible (CAT masks). */
enum class AllocClass : std::uint8_t
{
    kCpu,  ///< demand accesses from cores
    kDdio, ///< device DMA (NIC/storage): restricted ways
};

/** Cache geometry and partitioning. */
struct CacheConfig
{
    std::size_t size_bytes = 32ULL << 20; ///< Xeon 6242: ~22-32 MB class
    unsigned ways = 16;
    unsigned ddio_ways = 2;  ///< DDIO allocation limit (Intel default 2)
    unsigned cpu_ways = 16;  ///< CAT mask width for CPU class

    std::size_t
    sets() const
    {
        return size_bytes / (static_cast<std::size_t>(ways) *
                             kCacheLineSize);
    }
};

/**
 * Panics unless @p config is a buildable geometry: 1 to 16 ways, 1 to
 * `ways` DDIO ways and at least one set. Nothing derived from the
 * config (sets(), way masks) is defined before this passes.
 * @return @p config
 */
const CacheConfig &checkedConfig(const CacheConfig &config);

/** Aggregate statistics plus a windowed miss-rate probe. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t fills = 0;
    std::uint64_t flushes = 0;
    std::uint64_t flush_dirty = 0;

    double
    missRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(misses) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Outcome of a single cache access. The two pointers address line
 * slots inside the cache's data array; both stay valid until the next
 * access()/flush() on the same cache.
 */
struct AccessResult
{
    bool hit = false;
    /** Line was filled (miss) and needs a memory read first, unless
     *  the caller installs full-line data (store of a whole line). */
    bool filled = false;
    /** Dirty victim evicted by the fill (needs a memory write). */
    std::optional<Addr> writeback;
    /**
     * The victim's 64 bytes, set when writeback is. This is the slot
     * the new line was filled into, so it holds the victim's data only
     * until the caller writes the filled line through @ref data: copy
     * (or enqueue) the writeback first.
     */
    const std::uint8_t *writeback_data = nullptr;
    /** The accessed line's 64-byte slot, on a hit and on a fill. */
    std::uint8_t *data = nullptr;
};

/**
 * One-byte multiplicative hash of a line address. Each set keeps one
 * per way, so a lookup compares a full tag only where this matches.
 */
std::uint8_t lineFingerprint(Addr line);

/**
 * The LLC model. It tracks tags, dirtiness and exact LRU per set, and
 * holds 64 bytes per resident line: the MemorySystem keeps a line's
 * newest data here while it is cached and writes it back to DRAM on
 * eviction or flush. Callers that model no data (the analytic
 * contention probe) never touch the slots.
 *
 * Exact LRU is a packed recency stack, one 64-bit word per set: up to
 * 16 four-bit way ids ordered MRU (low nibble) to LRU, so
 * associativity is capped at 16 ways.
 *
 * Set state, line slots and tags live in one demand-zero anonymous
 * mapping, so construction writes nothing proportional to capacity
 * and pages no access reaches are never committed.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);
    ~Cache();
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Access one line.
     * @param addr line-aligned physical address
     * @param is_write marks the line dirty
     * @param cls allocation class (CAT/DDIO mask)
     * @param full_line_store when true, a write miss allocates without
     *        a memory fetch (ItoM / full-line-store optimisation used
     *        by optimised memcpy)
     */
    AccessResult access(Addr addr, bool is_write, AllocClass cls,
                        bool full_line_store = false);

    /**
     * clflush semantics: invalidate the line, returning its address if
     * it was dirty (caller must write it back). @return {present,
     * was_dirty}.
     */
    struct FlushResult
    {
        bool present = false;
        bool dirty = false;
        /** The line's data, valid when dirty (caller writes it back). */
        std::array<std::uint8_t, kCacheLineSize> data{};
    };
    FlushResult flush(Addr addr);

    /**
     * Pointer to the 64 bytes cached for @p addr, or nullptr when the
     * line is absent. Valid until the next access()/flush().
     */
    std::uint8_t *dataPtr(Addr addr);
    const std::uint8_t *dataPtr(Addr addr) const;

    /** @return true if the line currently resides in the cache. */
    bool contains(Addr addr) const;

    /** @return true if present and dirty. */
    bool isDirty(Addr addr) const;

    /** Shrink/grow the CPU-class way allocation at runtime (CAT). */
    void setCpuWays(unsigned ways);

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    /**
     * Windowed miss-rate probe (the software stack's LLC contention
     * signal, Sec. V-C): miss rate since the last probe call.
     */
    double probeMissRate();

  private:
    /**
     * Per-set replacement and line-state bits, one 32-byte block per
     * set; all zeros is an empty set. A lookup reads only this block
     * unless a fingerprint matches.
     */
    struct alignas(32) SetState
    {
        /** Way ids, nibble 0 = MRU, 4 bits each; set at first fill. */
        std::uint64_t stack;
        std::uint16_t valid; ///< bit w: way w holds a line
        std::uint16_t dirty; ///< bit w: way w is dirty (implies valid)
        /** Way w's lineFingerprint() in byte w % 8 (from the least
         *  significant) of word w / 8; meaningless while w is invalid. */
        std::array<std::uint64_t, 2> fingerprints;
    };
    static_assert(sizeof(SetState) == 32, "one SetState per half line");

    std::size_t setIndex(Addr addr) const;
    /** @return the way holding @p line in @p set, or config_.ways. */
    unsigned findWay(std::size_t set, Addr line) const;
    /** Way-major slot number of (set, way), into tags_ and data_. */
    std::size_t slot(std::size_t set, unsigned way) const
    {
        return way * sets_ + set;
    }
    std::uint8_t *slotData(std::size_t set, unsigned way);

    CacheConfig config_;
    std::size_t sets_; ///< cached config_.sets()
    bool sets_pow2_;   ///< index with a mask instead of fastmod
    /** fastmodReciprocal(sets_), for setIndex(). */
    unsigned __int128 set_reciprocal_ = 0;
    std::uint64_t initial_stack_; ///< an empty set's way order
    std::uint16_t cpu_eligible_;  ///< ways [0, cpu_ways) as a bitmask
    std::uint16_t ddio_eligible_; ///< the last ddio_ways ways
    /**
     * One anonymous mapping of map_bytes_: data_ (64 B per slot, line
     * aligned), then state_ (one SetState per set), then tags_ (one
     * line address per slot). Slots are way-major, so a run that fills
     * only low ways commits only their planes. A tag is read only when
     * its way is valid, so zero pages need no invalid-tag sentinel.
     */
    std::size_t map_bytes_;
    std::uint8_t *data_;
    SetState *state_;
    Addr *tags_;
    CacheStats stats_;
    std::uint64_t probe_hits_ = 0;
    std::uint64_t probe_misses_ = 0;
};

} // namespace sd::cache

#endif // SD_CACHE_CACHE_H
