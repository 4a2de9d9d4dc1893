#include "cache/cache.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

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

} // namespace

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
      initial_stack_(initialStack(config.ways)),
      all_ways_(wayRange(0, config.ways)),
      cpu_eligible_(wayRange(
          0, std::max(1u, std::min(config.cpu_ways, config.ways)))),
      ddio_eligible_(
          wayRange(config.ways - config.ddio_ways, config.ways)),
      map_bytes_(sets_.value() *
                 (sizeof(SetState) +
                  config.ways * (kCacheLineSize + sizeof(Addr))))
{
    // Anonymous pages read as zero until first written, and only
    // written pages are committed. An all-zero SetState is an empty set.
    void *map = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    SD_ASSERT(map != MAP_FAILED, "cannot map %zu bytes of LLC state",
              map_bytes_);
    data_ = static_cast<std::uint8_t *>(map);
    state_ = reinterpret_cast<SetState *>(
        data_ + sets_.value() * config.ways * kCacheLineSize);
    tags_ = reinterpret_cast<Addr *>(state_ + sets_.value());
}

Cache::~Cache()
{
    munmap(data_, map_bytes_);
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
