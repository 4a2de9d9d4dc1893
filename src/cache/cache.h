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
#include <bit>
#include <cstdint>
#include <optional>

#include "common/bitops.h"
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
inline std::uint8_t
lineFingerprint(Addr line)
{
    // Fibonacci hashing: the top byte of the line number times 2^64/phi.
    return static_cast<std::uint8_t>(
        ((line >> kLineBits) * 0x9E37'79B9'7F4A'7C15ULL) >> 56);
}

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
 *
 * The per-access path (access, contains and the set lookup under
 * them) is defined inline below the class: the contention probe
 * issues millions of accesses per call and reads only `hit`.
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
        return way * sets_.value() + set;
    }
    std::uint8_t *slotData(std::size_t set, unsigned way)
    {
        return data_ + slot(set, way) * kCacheLineSize;
    }
    /**
     * Eviction victim among the @p eligible ways of @p state. This is
     * exactly what per-way timestamps give: the lowest invalid eligible
     * way, else the eligible way touched longest ago.
     */
    unsigned pickVictim(const SetState &state, std::uint16_t eligible) const;

    CacheConfig config_;
    Divisor sets_; ///< config_.sets(), which setIndex() reduces by
    std::uint64_t initial_stack_; ///< an empty set's way order
    std::uint16_t all_ways_;      ///< ways [0, ways) as a bitmask
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

namespace detail {

inline constexpr std::uint64_t kNibbleLsb = 0x1111'1111'1111'1111ULL;

/** @return the low bit of every nibble of @p stack that equals @p way. */
inline std::uint64_t
nibblesEqual(std::uint64_t stack, unsigned way)
{
    // SWAR search: the nibble equal to `way` becomes zero after the
    // XOR; fold each nibble's bits onto its low bit to find it.
    const std::uint64_t x = stack ^ (way * kNibbleLsb);
    return ~(x | (x >> 1) | (x >> 2) | (x >> 3)) & kNibbleLsb;
}

/** @return @p stack with @p way moved to the MRU end. */
inline std::uint64_t
promote(std::uint64_t stack, unsigned way)
{
    // Unused high nibbles (ways < 16) sit deeper than every real way,
    // so the lowest match is the real one.
    const auto shift =
        static_cast<unsigned>(std::countr_zero(nibblesEqual(stack, way)));
    // Shift the nibbles above `way` one place deeper and put `way` on
    // top. 0x10 << 60 wraps to 0, so depth 15 needs no special case.
    const std::uint64_t above = (std::uint64_t{1} << shift) - 1;
    const std::uint64_t through = (std::uint64_t{0x10} << shift) - 1;
    return (stack & ~through) | ((stack & above) << 4) | way;
}

/** @return bit i set where byte i of @p word equals @p fp (8 bits). */
inline unsigned
matchBytes(std::uint64_t word, std::uint8_t fp)
{
    constexpr std::uint64_t kByteLsb = 0x0101'0101'0101'0101ULL;
    constexpr std::uint64_t kLow7 = 0x7F7F'7F7F'7F7F'7F7FULL;
    const std::uint64_t x = word ^ (fp * kByteLsb);
    // Exact zero-byte test (no borrow between bytes): bit 7 of a byte
    // survives only when the byte is zero.
    const std::uint64_t zero = ~(((x & kLow7) + kLow7) | x | kLow7);
    // Gather the eight flags (now at bits 0, 8, ..., 56) into the top
    // byte: the multiplier's terms never collide, so nothing carries.
    return static_cast<unsigned>(((zero >> 7) * 0x0102'0408'1020'4080ULL) >>
                                 56);
}

} // namespace detail

inline std::size_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::size_t>(sets_.mod(addr >> kLineBits));
}

inline unsigned
Cache::findWay(std::size_t set, Addr line) const
{
    // A line lives in at most one way, so only valid ways whose
    // fingerprint matches need their full tag compared.
    const SetState &state = state_[set];
    const std::uint8_t fp = lineFingerprint(line);
    unsigned candidates = (detail::matchBytes(state.fingerprints[0], fp) |
                           detail::matchBytes(state.fingerprints[1], fp)
                               << 8) &
                          state.valid;
    for (; candidates != 0; candidates &= candidates - 1) {
        const auto way = static_cast<unsigned>(std::countr_zero(candidates));
        if (tags_[slot(set, way)] == line)
            return way;
    }
    return config_.ways;
}

inline unsigned
Cache::pickVictim(const SetState &state, std::uint16_t eligible) const
{
    if (const unsigned free = ~state.valid & eligible)
        return static_cast<unsigned>(std::countr_zero(free));
    // All eligible ways are valid, and every valid way was touched at
    // its fill, so stack depth orders them as timestamps would: take
    // the deepest. For the full way mask that is the last real nibble.
    const unsigned ways = config_.ways;
    if (eligible == all_ways_)
        return static_cast<unsigned>(state.stack >> (4 * (ways - 1))) & 0xF;
    // A partial mask (DDIO, CAT) marks its ways' depths and takes the
    // deepest mark. Unused nibbles read as way 0, so only the real
    // depths count.
    std::uint64_t depths = 0;
    for (unsigned e = eligible; e != 0; e &= e - 1)
        depths |= detail::nibblesEqual(
            state.stack, static_cast<unsigned>(std::countr_zero(e)));
    depths &= detail::kNibbleLsb >> (4 * (16 - ways));
    const auto deepest =
        63 - static_cast<unsigned>(std::countl_zero(depths));
    return static_cast<unsigned>(state.stack >> deepest) & 0xF;
}

inline AccessResult
Cache::access(Addr addr, bool is_write, AllocClass cls, bool full_line_store)
{
    const Addr line_addr = lineAlign(addr);
    const std::size_t set = setIndex(line_addr);
    SetState &state = state_[set];
    AccessResult result;

    if (const unsigned way = findWay(set, line_addr); way != config_.ways) {
        ++stats_.hits;
        ++probe_hits_;
        state.stack = detail::promote(state.stack, way);
        state.dirty |= static_cast<std::uint16_t>(unsigned{is_write} << way);
        result.hit = true;
        result.data = slotData(set, way);
        return result;
    }

    ++stats_.misses;
    ++probe_misses_;

    // Victim selection restricted to the class's eligible ways.
    // CPU class uses ways [0, cpu_ways); DDIO uses the last ddio_ways
    // ways, mirroring Intel's restricted-allocation scheme.
    const unsigned way = pickVictim(
        state, cls == AllocClass::kDdio ? ddio_eligible_ : cpu_eligible_);
    const auto bit = static_cast<std::uint16_t>(1u << way);
    Addr &tag = tags_[slot(set, way)];
    result.data = slotData(set, way);

    if (state.dirty & bit) {
        result.writeback = tag;
        result.writeback_data = result.data;
        ++stats_.writebacks;
    }

    tag = line_addr;
    std::uint64_t &fps = state.fingerprints[way / 8];
    const unsigned shift = 8 * (way % 8);
    fps = (fps & ~(std::uint64_t{0xFF} << shift)) |
          (std::uint64_t{lineFingerprint(line_addr)} << shift);
    // The order of invalid ways never matters, so an empty set (a
    // zero page reads as stack 0) may start over from any permutation.
    if (state.valid == 0)
        state.stack = initial_stack_;
    state.valid |= bit;
    state.dirty = static_cast<std::uint16_t>(
        is_write ? state.dirty | bit : state.dirty & ~bit);
    state.stack = detail::promote(state.stack, way);
    ++stats_.fills;
    result.filled = !(is_write && full_line_store);
    return result;
}

inline bool
Cache::contains(Addr addr) const
{
    const Addr line = lineAlign(addr);
    return findWay(setIndex(line), line) != config_.ways;
}

} // namespace sd::cache

#endif // SD_CACHE_CACHE_H
