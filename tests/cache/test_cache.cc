/**
 * @file
 * LLC model: hits/misses, LRU, writebacks, CAT way partitioning, DDIO
 * restricted allocation, flush semantics, and the miss-rate probe.
 */

#include <gtest/gtest.h>

#include <cstring>

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

} // namespace
