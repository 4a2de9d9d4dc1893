/**
 * @file
 * LLC model: hits/misses, LRU, writebacks, CAT way partitioning, DDIO
 * restricted allocation, flush semantics, the miss-rate probe, lines
 * whose fingerprints collide, on-demand commit of the line store, and
 * the geometry checks that run before anything derives from a config.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <fstream>

#include "cache/cache.h"
#include "common/random.h"

namespace {

using namespace sd;
using cache::AllocClass;
using cache::Cache;
using cache::CacheConfig;

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.size_bytes = 64 * 1024; // 64 sets x 16 ways
    cfg.ways = 16;
    cfg.ddio_ways = 2;
    cfg.cpu_ways = 16;
    return cfg;
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallConfig());
    const auto first = cache.access(0x1000, false, AllocClass::kCpu);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(first.filled);
    const auto second = cache.access(0x1000, false, AllocClass::kCpu);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SubLineAddressesShareALine)
{
    Cache cache(smallConfig());
    cache.access(0x1000, false, AllocClass::kCpu);
    EXPECT_TRUE(cache.access(0x1030, false, AllocClass::kCpu).hit);
}

TEST(Cache, FullLineStoreSkipsFetch)
{
    Cache cache(smallConfig());
    const auto result =
        cache.access(0x2000, true, AllocClass::kCpu, true);
    EXPECT_FALSE(result.hit);
    EXPECT_FALSE(result.filled) << "ItoM store needs no memory read";
    EXPECT_TRUE(cache.isDirty(0x2000));
}

TEST(Cache, LruEvictionOrder)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 2 * 64; // 1 set, 2 ways
    cfg.ways = 2;
    cfg.ddio_ways = 1;
    cfg.cpu_ways = 2;
    Cache cache(cfg);

    cache.access(0x0, false, AllocClass::kCpu);
    cache.access(0x40, false, AllocClass::kCpu);
    cache.access(0x0, false, AllocClass::kCpu); // touch A
    cache.access(0x80, false, AllocClass::kCpu); // evicts B (0x40)
    EXPECT_TRUE(cache.contains(0x0));
    EXPECT_FALSE(cache.contains(0x40));
}

TEST(Cache, DirtyEvictionYieldsWritebackWithData)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 2 * 64;
    cfg.ways = 2;
    cfg.ddio_ways = 1;
    cfg.cpu_ways = 2;
    Cache cache(cfg);

    cache.access(0x0, true, AllocClass::kCpu, true);
    std::memset(cache.dataPtr(0x0), 0xaa, kCacheLineSize);
    cache.access(0x40, false, AllocClass::kCpu);
    const auto result = cache.access(0x80, false, AllocClass::kCpu);
    ASSERT_TRUE(result.writeback.has_value());
    EXPECT_EQ(*result.writeback, 0x0u);
    ASSERT_NE(result.writeback_data, nullptr);
    EXPECT_EQ(result.writeback_data[0], 0xaa);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CatRestrictsCpuWays)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 4 * 64; // 1 set x 4 ways
    cfg.ways = 4;
    cfg.ddio_ways = 1;
    cfg.cpu_ways = 4;
    Cache cache(cfg);
    cache.setCpuWays(2); // CAT mask: CPU limited to ways 0-1

    cache.access(0x000, false, AllocClass::kCpu);
    cache.access(0x040, false, AllocClass::kCpu);
    cache.access(0x080, false, AllocClass::kCpu); // must evict within 2
    unsigned resident = cache.contains(0x000) + cache.contains(0x040) +
                        cache.contains(0x080);
    EXPECT_EQ(resident, 2u);
}

TEST(Cache, DdioAllocatesInRestrictedWays)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 4 * 64;
    cfg.ways = 4;
    cfg.ddio_ways = 1; // DMA confined to 1 way
    cfg.cpu_ways = 4;
    Cache cache(cfg);

    // Two DMA lines to the same set: second evicts first (1 way).
    cache.access(0x000, true, AllocClass::kDdio, true);
    cache.access(0x040, true, AllocClass::kDdio, true);
    EXPECT_FALSE(cache.contains(0x000));
    EXPECT_TRUE(cache.contains(0x040));
}

TEST(Cache, DdioEvictionLeaksToDram)
{
    // The Obs. 3 mechanism: DMA bursts under DDIO pressure push dirty
    // DMA lines to DRAM before the CPU consumes them.
    auto cfg = smallConfig();
    cfg.size_bytes = 4 * 64;
    cfg.ways = 4;
    cfg.ddio_ways = 1;
    Cache cache(cfg);

    cache.access(0x000, true, AllocClass::kDdio, true);
    const auto result = cache.access(0x040, true, AllocClass::kDdio, true);
    ASSERT_TRUE(result.writeback.has_value());
    EXPECT_EQ(*result.writeback, 0x000u);
}

TEST(Cache, FlushDirtyReturnsData)
{
    Cache cache(smallConfig());
    cache.access(0x3000, true, AllocClass::kCpu, true);
    std::memset(cache.dataPtr(0x3000), 0x77, kCacheLineSize);
    const auto result = cache.flush(0x3000);
    EXPECT_TRUE(result.present);
    EXPECT_TRUE(result.dirty);
    EXPECT_EQ(result.data[10], 0x77);
    EXPECT_FALSE(cache.contains(0x3000));
}

TEST(Cache, FlushCleanAndAbsent)
{
    Cache cache(smallConfig());
    cache.access(0x4000, false, AllocClass::kCpu);
    const auto clean = cache.flush(0x4000);
    EXPECT_TRUE(clean.present);
    EXPECT_FALSE(clean.dirty);

    const auto absent = cache.flush(0x5000);
    EXPECT_FALSE(absent.present);
    EXPECT_EQ(cache.stats().flushes, 2u);
    EXPECT_EQ(cache.stats().flush_dirty, 0u);
}

TEST(Cache, ProbeMissRateWindows)
{
    Cache cache(smallConfig());
    // Window 1: all misses.
    for (Addr a = 0; a < 32 * 64; a += 64)
        cache.access(a, false, AllocClass::kCpu);
    EXPECT_DOUBLE_EQ(cache.probeMissRate(), 1.0);
    // Window 2: all hits.
    for (Addr a = 0; a < 32 * 64; a += 64)
        cache.access(a, false, AllocClass::kCpu);
    EXPECT_DOUBLE_EQ(cache.probeMissRate(), 0.0);
}

TEST(Cache, ShrinkingCpuWaysRaisesMissRate)
{
    auto cfg = smallConfig();
    cfg.size_bytes = 256 * 1024;
    Cache big(cfg);
    Cache small(cfg);
    small.setCpuWays(2);

    Rng rng(9);
    // Working set ~2x the small partition.
    std::vector<Addr> lines;
    for (int i = 0; i < 1500; ++i)
        lines.push_back(lineAlign(rng.below(96 * 1024)));
    for (int pass = 0; pass < 4; ++pass)
        for (Addr a : lines) {
            big.access(a, false, AllocClass::kCpu);
            small.access(a, false, AllocClass::kCpu);
        }
    EXPECT_GT(small.stats().missRate(), big.stats().missRate());
}

TEST(Cache, DataPtrRoundTrip)
{
    Cache cache(smallConfig());
    cache.access(0x6000, true, AllocClass::kCpu, true);
    std::uint8_t *slot = cache.dataPtr(0x6000);
    ASSERT_NE(slot, nullptr);
    std::memset(slot, 0x42, kCacheLineSize);
    EXPECT_EQ(cache.dataPtr(0x6000)[63], 0x42);
    EXPECT_EQ(cache.dataPtr(0x9999), nullptr);
}

TEST(Cache, FingerprintCollisionsStayDistinct)
{
    const CacheConfig cfg = smallConfig();
    const Addr stride = cfg.sets() * kCacheLineSize; // same set
    const Addr a = 5 * kCacheLineSize;
    Addr b = 0;
    Addr c = 0;
    for (Addr x = a + stride; c == 0; x += stride) {
        if (cache::lineFingerprint(x) != cache::lineFingerprint(a))
            continue;
        if (b == 0)
            b = x;
        else
            c = x;
    }

    Cache cache(cfg);
    cache.access(a, true, AllocClass::kCpu, true);
    std::memset(cache.dataPtr(a), 0xa1, kCacheLineSize);
    cache.access(b, false, AllocClass::kCpu);
    std::memset(cache.dataPtr(b), 0xb2, kCacheLineSize);

    EXPECT_TRUE(cache.access(a, false, AllocClass::kCpu).hit);
    EXPECT_TRUE(cache.access(b, false, AllocClass::kCpu).hit);
    EXPECT_TRUE(cache.contains(a));
    EXPECT_TRUE(cache.contains(b));
    EXPECT_FALSE(cache.contains(c)) << "a third colliding line is absent";
    EXPECT_TRUE(cache.isDirty(a));
    EXPECT_FALSE(cache.isDirty(b));
    ASSERT_NE(cache.dataPtr(a), cache.dataPtr(b));
    EXPECT_EQ(cache.dataPtr(a)[0], 0xa1);
    EXPECT_EQ(cache.dataPtr(b)[0], 0xb2);
    EXPECT_EQ(cache.dataPtr(c), nullptr);

    const auto flushed = cache.flush(a);
    EXPECT_TRUE(flushed.present);
    EXPECT_TRUE(flushed.dirty);
    EXPECT_EQ(flushed.data[0], 0xa1);
    EXPECT_FALSE(cache.contains(a));
    EXPECT_TRUE(cache.contains(b));
    EXPECT_EQ(cache.dataPtr(b)[0], 0xb2);
    EXPECT_EQ(cache.stats().hits, 2u);
}

/** Resident set size of this process, from /proc/self/statm. */
std::size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t size_pages = 0;
    std::size_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    EXPECT_TRUE(statm) << "cannot read /proc/self/statm";
    return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(Cache, StorageIsCommittedOnDemand)
{
    // 256 MB of lines maps 296 MB of set state, slots and tags. None
    // of it may commit up front, and 1,000 lines touch about 100 KB;
    // the bound leaves room for transparent huge pages and would still
    // catch one zero-filled array of slots or tags.
    CacheConfig cfg = smallConfig();
    cfg.size_bytes = std::size_t{256} << 20;
    constexpr std::size_t kBound = std::size_t{32} << 20;

    const std::size_t before = residentBytes();
    Cache cache(cfg);
    const std::size_t constructed = residentBytes();
    for (Addr line = 0; line < 1000; ++line) {
        const auto result = cache.access(line * kCacheLineSize, true,
                                         AllocClass::kCpu, true);
        result.data[0] = 1;
    }
    const std::size_t touched = residentBytes();

    EXPECT_LT(constructed - std::min(before, constructed), kBound);
    EXPECT_LT(touched - std::min(before, touched), kBound);
    EXPECT_EQ(cache.stats().fills, 1000u);
}

#if !defined(__SANITIZE_THREAD__)
// Each bad geometry below is undefined behaviour (a division by zero
// or an oversized shift) once an initializer derives sets() or a way
// mask from it, so the checks must fire first.
TEST(CacheDeath, ZeroWaysPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    CacheConfig cfg = smallConfig();
    cfg.ways = 0;
    EXPECT_DEATH({ Cache cache(cfg); }, "cache needs at least one way");
}

TEST(CacheDeath, MoreThanSixteenWaysPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    CacheConfig cfg = smallConfig();
    cfg.ways = 17;
    EXPECT_DEATH({ Cache cache(cfg); },
                 "recency stack holds at most 16 ways");
}

TEST(CacheDeath, DdioWaysAboveAssociativityPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    CacheConfig cfg = smallConfig();
    cfg.ddio_ways = cfg.ways + 1;
    EXPECT_DEATH({ Cache cache(cfg); },
                 "DDIO ways outside \\[1, associativity\\]");
}

TEST(CacheDeath, SizeBelowOneSetPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    CacheConfig cfg = smallConfig();
    cfg.size_bytes = cfg.ways * kCacheLineSize - 1;
    EXPECT_DEATH({ Cache cache(cfg); }, "cache smaller than one set");
}
#endif

} // namespace
