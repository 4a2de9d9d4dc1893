#include "cache/cache.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bitops.h"
#include "common/log.h"

namespace sd::cache {

namespace {

/** Bitmask of ways [lo, hi); hi <= 16. */
std::uint16_t
wayRange(unsigned lo, unsigned hi)
{
    return static_cast<std::uint16_t>(((1u << hi) - 1) & ~((1u << lo) - 1));
}

/** Recency stack with way w at depth w. The order of never-filled
 *  ways is arbitrary: a way's depth only matters once it is valid. */
std::uint64_t
initialStack(unsigned ways)
{
    std::uint64_t stack = 0;
    for (unsigned w = 0; w < ways; ++w)
        stack |= std::uint64_t{w} << (4 * w);
    return stack;
}

/** @return @p stack with @p way moved to the MRU end. */
std::uint64_t
promote(std::uint64_t stack, unsigned way)
{
    constexpr std::uint64_t kNibbleLsb = 0x1111'1111'1111'1111ULL;
    // SWAR search: the nibble equal to `way` becomes zero after the
    // XOR; fold each nibble's bits onto its low bit to find it. Unused
    // high nibbles (ways < 16) sit deeper than every real way, so the
    // lowest match is the real one.
    const std::uint64_t x = stack ^ (way * kNibbleLsb);
    const std::uint64_t folded = x | (x >> 1) | (x >> 2) | (x >> 3);
    const auto shift =
        static_cast<unsigned>(std::countr_zero(~folded & kNibbleLsb));
    // Shift the nibbles above `way` one place deeper and put `way` on
    // top. 0x10 << 60 wraps to 0, so depth 15 needs no special case.
    const std::uint64_t above = (std::uint64_t{1} << shift) - 1;
    const std::uint64_t through = (std::uint64_t{0x10} << shift) - 1;
    return (stack & ~through) | ((stack & above) << 4) | way;
}

/**
 * Eviction victim among the @p eligible ways of a set with @p ways
 * ways. This is exactly what per-way timestamps give: the lowest
 * invalid eligible way, else the eligible way touched longest ago.
 * Every valid way was touched at its fill, so among valid ways stack
 * depth orders the same as a timestamp would.
 */
unsigned
pickVictim(std::uint64_t stack, std::uint16_t valid, std::uint16_t eligible,
           unsigned ways)
{
    if (const unsigned free = ~valid & eligible)
        return static_cast<unsigned>(std::countr_zero(free));
    // All eligible ways are valid: take the deepest one. For the full
    // way mask that is the last nibble.
    for (unsigned depth = ways; depth-- > 0;) {
        const auto way = static_cast<unsigned>(stack >> (4 * depth)) & 0xF;
        if ((eligible >> way) & 1)
            return way;
    }
    SD_ASSERT(false, "no eligible way");
    return 0;
}

/** @return bit i set where byte i of @p word equals @p fp (8 bits). */
unsigned
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

} // namespace

std::uint8_t
lineFingerprint(Addr line)
{
    // Fibonacci hashing: the top byte of the line number times 2^64/phi.
    return static_cast<std::uint8_t>(
        ((line >> kLineBits) * 0x9E37'79B9'7F4A'7C15ULL) >> 56);
}

const CacheConfig &
checkedConfig(const CacheConfig &config)
{
    SD_ASSERT(config.ways >= 1, "cache needs at least one way");
    SD_ASSERT(config.ways <= 16, "recency stack holds at most 16 ways");
    SD_ASSERT(config.ddio_ways >= 1 && config.ddio_ways <= config.ways,
              "DDIO ways outside [1, associativity]");
    SD_ASSERT(config.sets() > 0, "cache smaller than one set");
    return config;
}

// config_ is declared first, so checkedConfig() runs before any other
// initializer derives a value from the geometry.
Cache::Cache(const CacheConfig &config)
    : config_(checkedConfig(config)), sets_(config_.sets()),
      sets_pow2_(isPowerOf2(sets_)),
      initial_stack_(initialStack(config.ways)),
      cpu_eligible_(wayRange(
          0, std::max(1u, std::min(config.cpu_ways, config.ways)))),
      ddio_eligible_(
          wayRange(config.ways - config.ddio_ways, config.ways)),
      map_bytes_(sets_ * (sizeof(SetState) +
                          config.ways * (kCacheLineSize + sizeof(Addr))))
{
    if (!sets_pow2_)
        set_reciprocal_ = fastmodReciprocal(sets_);
    // Anonymous pages read as zero until first written, and only
    // written pages are committed. An all-zero SetState is an empty set.
    void *map = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    SD_ASSERT(map != MAP_FAILED, "cannot map %zu bytes of LLC state",
              map_bytes_);
    data_ = static_cast<std::uint8_t *>(map);
    state_ = reinterpret_cast<SetState *>(
        data_ + sets_ * config.ways * kCacheLineSize);
    tags_ = reinterpret_cast<Addr *>(state_ + sets_);
}

Cache::~Cache()
{
    munmap(data_, map_bytes_);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    const Addr line = addr >> kLineBits;
    // Power-of-two set counts (the common geometry) probe with a
    // mask; the general case multiplies by a precomputed reciprocal.
    return sets_pow2_ ? (line & (sets_ - 1))
                      : fastmod(line, set_reciprocal_, sets_);
}

unsigned
Cache::findWay(std::size_t set, Addr line) const
{
    // A line lives in at most one way, so only valid ways whose
    // fingerprint matches need their full tag compared.
    const SetState &state = state_[set];
    const std::uint8_t fp = lineFingerprint(line);
    unsigned candidates = (matchBytes(state.fingerprints[0], fp) |
                           matchBytes(state.fingerprints[1], fp) << 8) &
                          state.valid;
    for (; candidates != 0; candidates &= candidates - 1) {
        const auto way = static_cast<unsigned>(std::countr_zero(candidates));
        if (tags_[slot(set, way)] == line)
            return way;
    }
    return config_.ways;
}

std::uint8_t *
Cache::slotData(std::size_t set, unsigned way)
{
    return data_ + slot(set, way) * kCacheLineSize;
}

AccessResult
Cache::access(Addr addr, bool is_write, AllocClass cls,
              bool full_line_store)
{
    const Addr line_addr = lineAlign(addr);
    const std::size_t set = setIndex(line_addr);
    SetState &state = state_[set];
    AccessResult result;

    if (const unsigned way = findWay(set, line_addr); way != config_.ways) {
        ++stats_.hits;
        ++probe_hits_;
        state.stack = promote(state.stack, way);
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
        state.stack, state.valid,
        cls == AllocClass::kDdio ? ddio_eligible_ : cpu_eligible_,
        config_.ways);
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
    state.stack = promote(state.stack, way);
    ++stats_.fills;
    result.filled = !(is_write && full_line_store);
    return result;
}

Cache::FlushResult
Cache::flush(Addr addr)
{
    ++stats_.flushes;
    FlushResult result;
    const Addr line = lineAlign(addr);
    const std::size_t set = setIndex(line);
    const unsigned way = findWay(set, line);
    if (way == config_.ways)
        return result;

    SetState &state = state_[set];
    const auto bit = static_cast<std::uint16_t>(1u << way);
    result.present = true;
    result.dirty = (state.dirty & bit) != 0;
    if (result.dirty) {
        ++stats_.flush_dirty;
        std::memcpy(result.data.data(), slotData(set, way), kCacheLineSize);
    }
    state.valid &= static_cast<std::uint16_t>(~bit);
    state.dirty &= static_cast<std::uint16_t>(~bit);
    return result;
}

std::uint8_t *
Cache::dataPtr(Addr addr)
{
    const Addr line = lineAlign(addr);
    const std::size_t set = setIndex(line);
    const unsigned way = findWay(set, line);
    return way == config_.ways ? nullptr : slotData(set, way);
}

const std::uint8_t *
Cache::dataPtr(Addr addr) const
{
    return const_cast<Cache *>(this)->dataPtr(addr);
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineAlign(addr);
    return findWay(setIndex(line), line) != config_.ways;
}

bool
Cache::isDirty(Addr addr) const
{
    const Addr line = lineAlign(addr);
    const std::size_t set = setIndex(line);
    const unsigned way = findWay(set, line);
    return way != config_.ways && ((state_[set].dirty >> way) & 1);
}

void
Cache::setCpuWays(unsigned ways)
{
    SD_ASSERT(ways >= 1 && ways <= config_.ways, "CAT mask out of range");
    cpu_eligible_ = wayRange(0, ways);
}

double
Cache::probeMissRate()
{
    const auto total = probe_hits_ + probe_misses_;
    const double rate =
        total ? static_cast<double>(probe_misses_) /
                    static_cast<double>(total)
              : 0.0;
    probe_hits_ = 0;
    probe_misses_ = 0;
    return rate;
}

} // namespace sd::cache
