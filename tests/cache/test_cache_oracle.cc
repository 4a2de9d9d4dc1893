/**
 * @file
 * Exact-LRU oracle: the packed-recency-stack Cache against a reference
 * model that keeps a 64-bit timestamp per way and scans for the
 * oldest, driven in lockstep by seeded random streams of CPU and DDIO
 * accesses, flushes and CAT mask changes. The reference indexes sets
 * with a plain modulo and scans every tag, so it also checks the
 * fingerprint lookup and the reciprocal set index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <vector>

#include "cache/cache.h"
#include "common/random.h"

namespace {

using namespace sd;
using cache::AllocClass;
using cache::Cache;
using cache::CacheConfig;
using cache::CacheStats;

/** Timestamp LRU: per-way last-use clock, victim = oldest eligible. */
class ReferenceCache
{
  public:
    struct Result
    {
        bool hit = false;
        bool filled = false;
        std::optional<Addr> writeback;
        std::array<std::uint8_t, kCacheLineSize> writeback_data{};
        std::uint8_t *data = nullptr;
    };

    explicit ReferenceCache(const CacheConfig &config)
        : config_(config),
          cpu_ways_(std::min(config.cpu_ways, config.ways)),
          sets_(config.sets()), tags_(sets_ * config.ways, kInvalidTag),
          lru_(tags_.size(), 0), dirty_(tags_.size(), 0),
          data_(tags_.size() * kCacheLineSize, 0)
    {
    }

    Result
    access(Addr addr, bool is_write, AllocClass cls, bool full_line_store)
    {
        const Addr line_addr = lineAlign(addr);
        Result result;
        if (const std::size_t slot = find(line_addr); slot != kNotFound) {
            ++stats_.hits;
            lru_[slot] = ++lru_clock_;
            dirty_[slot] |= is_write;
            result.hit = true;
            result.data = data_.data() + slot * kCacheLineSize;
            return result;
        }
        ++stats_.misses;

        unsigned lo = 0;
        unsigned hi = std::max(1u, cpu_ways_);
        if (cls == AllocClass::kDdio) {
            lo = config_.ways - config_.ddio_ways;
            hi = config_.ways;
        }
        const std::size_t base = setOf(line_addr) * config_.ways;
        std::size_t victim = base + lo;
        for (unsigned w = lo; w < hi; ++w) {
            const std::size_t slot = base + w;
            if (tags_[slot] == kInvalidTag) {
                victim = slot;
                break;
            }
            if (lru_[slot] < lru_[victim])
                victim = slot;
        }
        if (tags_[victim] != kInvalidTag && dirty_[victim]) {
            result.writeback = tags_[victim];
            std::memcpy(result.writeback_data.data(),
                        data_.data() + victim * kCacheLineSize,
                        kCacheLineSize);
            ++stats_.writebacks;
        }
        tags_[victim] = line_addr;
        dirty_[victim] = is_write;
        lru_[victim] = ++lru_clock_;
        ++stats_.fills;
        result.filled = !(is_write && full_line_store);
        result.data = data_.data() + victim * kCacheLineSize;
        return result;
    }

    Cache::FlushResult
    flush(Addr addr)
    {
        ++stats_.flushes;
        Cache::FlushResult result;
        if (const std::size_t slot = find(addr); slot != kNotFound) {
            result.present = true;
            result.dirty = dirty_[slot] != 0;
            if (result.dirty) {
                ++stats_.flush_dirty;
                std::memcpy(result.data.data(),
                            data_.data() + slot * kCacheLineSize,
                            kCacheLineSize);
            }
            tags_[slot] = kInvalidTag;
            dirty_[slot] = 0;
        }
        return result;
    }

    bool contains(Addr addr) const { return find(addr) != kNotFound; }

    bool
    isDirty(Addr addr) const
    {
        const std::size_t slot = find(addr);
        return slot != kNotFound && dirty_[slot];
    }

    void setCpuWays(unsigned ways) { cpu_ways_ = ways; }
    const CacheStats &stats() const { return stats_; }

  private:
    static constexpr Addr kInvalidTag = ~Addr{0};
    static constexpr std::size_t kNotFound = ~std::size_t{0};

    std::size_t setOf(Addr addr) const
    {
        return (addr / kCacheLineSize) % sets_;
    }

    std::size_t
    find(Addr addr) const
    {
        const Addr line = lineAlign(addr);
        const std::size_t base = setOf(line) * config_.ways;
        for (unsigned w = 0; w < config_.ways; ++w)
            if (tags_[base + w] == line)
                return base + w;
        return kNotFound;
    }

    CacheConfig config_;
    unsigned cpu_ways_;
    std::size_t sets_;
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lru_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint8_t> data_;
    std::uint64_t lru_clock_ = 0;
    CacheStats stats_;
};

/** Write a pattern unique to @p step through both models' slots. */
void
stamp(std::uint8_t *a, std::uint8_t *b, std::uint64_t step)
{
    for (unsigned i = 0; i < kCacheLineSize; ++i)
        a[i] = b[i] = static_cast<std::uint8_t>(step * 131 + i * 7);
}

struct Shape
{
    unsigned ways;
    std::size_t sets;
    unsigned ddio_ways = 0;         ///< 0: drawn from the seed
    Addr base = 0;                  ///< added to every address
    std::uint64_t line_stride = 1;  ///< lines between stream lines
};

void
runLockstep(const Shape &shape, std::uint64_t seed, unsigned steps)
{
    SCOPED_TRACE(testing::Message()
                 << shape.ways << " ways x " << shape.sets << " sets, base 0x"
                 << std::hex << shape.base << std::dec << ", line stride "
                 << shape.line_stride << ", seed " << seed);
    Rng rng(seed);
    CacheConfig cfg;
    cfg.ways = shape.ways;
    cfg.size_bytes = shape.sets * shape.ways * kCacheLineSize;
    cfg.ddio_ways = static_cast<unsigned>(rng.range(1, shape.ways));
    if (shape.ddio_ways != 0)
        cfg.ddio_ways = shape.ddio_ways;
    cfg.cpu_ways = shape.ways;
    Cache cache(cfg);
    ReferenceCache ref(cfg);

    // Three lines per slot on average: plenty of hits and evictions.
    const std::uint64_t lines = shape.sets * shape.ways * 3;
    for (unsigned step = 0; step < steps; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        const Addr addr =
            shape.base +
            rng.below(lines) * shape.line_stride * kCacheLineSize +
            rng.below(kCacheLineSize);
        const unsigned op = static_cast<unsigned>(rng.below(100));
        if (op < 8) {
            const auto got = cache.flush(addr);
            const auto want = ref.flush(addr);
            ASSERT_EQ(got.present, want.present);
            ASSERT_EQ(got.dirty, want.dirty);
            if (want.dirty) {
                ASSERT_EQ(got.data, want.data);
            }
        } else if (op < 10) {
            const auto ways = static_cast<unsigned>(rng.range(1, shape.ways));
            cache.setCpuWays(ways);
            ref.setCpuWays(ways);
        } else {
            const bool is_write = rng.chance(0.5);
            const AllocClass cls =
                rng.chance(0.3) ? AllocClass::kDdio : AllocClass::kCpu;
            const bool full_line_store = rng.chance(0.5);
            const auto got = cache.access(addr, is_write, cls,
                                          full_line_store);
            const auto want = ref.access(addr, is_write, cls,
                                         full_line_store);
            ASSERT_EQ(got.hit, want.hit);
            ASSERT_EQ(got.filled, want.filled);
            ASSERT_EQ(got.writeback, want.writeback);
            if (want.writeback) {
                ASSERT_NE(got.writeback_data, nullptr);
                ASSERT_EQ(std::memcmp(got.writeback_data,
                                      want.writeback_data.data(),
                                      kCacheLineSize),
                          0);
            }
            ASSERT_NE(got.data, nullptr);
            stamp(got.data, want.data, step);
        }
        ASSERT_EQ(cache.contains(addr), ref.contains(addr));
        ASSERT_EQ(cache.isDirty(addr), ref.isDirty(addr));
    }

    for (std::uint64_t l = 0; l < lines; ++l) {
        const Addr addr =
            shape.base + l * shape.line_stride * kCacheLineSize;
        ASSERT_EQ(cache.contains(addr), ref.contains(addr)) << "line " << l;
    }
    const CacheStats &got = cache.stats();
    const CacheStats &want = ref.stats();
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.writebacks, want.writebacks);
    EXPECT_EQ(got.fills, want.fills);
    EXPECT_EQ(got.flushes, want.flushes);
    EXPECT_EQ(got.flush_dirty, want.flush_dirty);
}

TEST(CacheOracle, MatchesTimestampLruOnRandomStreams)
{
    for (const unsigned ways : {1u, 2u, 4u, 11u, 16u})
        for (const std::size_t sets : {std::size_t{8}, std::size_t{13}})
            for (const std::uint64_t seed : {1u, 2u}) {
                runLockstep({ways, sets}, seed * 1000 + ways, 20000);
                if (HasFatalFailure())
                    return;
            }
}

TEST(CacheOracle, MatchesOnContentionProbeGeometry)
{
    // app::measureContention's LLC: 6,912 sets (not a power of two, so
    // the set index takes the reciprocal path) x 16 ways, DDIO 2. The
    // base pushes line numbers past 32 bits. A window of consecutive
    // lines only rotates the sets of an inexact reciprocal, which no
    // lookup can see, so the last run also spreads its lines up to
    // 2^57: a 64-bit reciprocal, exact only while line x sets < 2^64,
    // then splits lines that share a set. The stride is coprime to
    // 6,912, so every set still gets its share.
    const Addr wide = (Addr{1} << 40) + 0x1234'5000;
    const Shape runs[] = {
        {16, 6912, 2, 0},
        {16, 6912, 2, wide},
        {16, 6912, 2, wide, (std::uint64_t{1} << 39) + 5},
    };
    for (const Shape &shape : runs)
        for (const std::uint64_t seed : {1u, 2u}) {
            runLockstep(shape, seed, 300000);
            if (HasFatalFailure())
                return;
        }
}

TEST(CacheOracle, MatchesAcrossThe32BitLineBoundary)
{
    // The probe geometry again, with the stream's lines straddling
    // line number 2^32: the set index takes the 64-bit reciprocal
    // below it and the 128-bit one above, so most sets hold lines
    // indexed both ways. The drawn CAT masks take the partial-mask
    // victim pick, DDIO's two ways the same on every fill.
    constexpr std::size_t kSets = 6912;
    constexpr std::uint64_t kLines = kSets * 16 * 3;
    const Addr base = ((Addr{1} << 32) - kLines / 2) * kCacheLineSize;
    for (const std::uint64_t seed : {3u, 4u}) {
        runLockstep({16, kSets, 2, base}, seed, 300000);
        if (HasFatalFailure())
            return;
    }
}

} // namespace
