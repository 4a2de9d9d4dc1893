/**
 * @file
 * MemorySystem facade: cached load/store data integrity through the
 * full controller path, flush-writeback semantics, MMIO routing,
 * multi-channel routing, and the pooled host-op slots: re-entrant
 * completions, pool growth inside a callback, and kDegraded tallies on
 * local and CXL-attached channels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "fault/fault.h"
#include "mem/cxl_link.h"
#include "sim/event_queue.h"

namespace {

using namespace sd;
using cache::CacheConfig;
using cache::MemorySystem;
using cache::PlainDimm;

struct Rig
{
    EventQueue events;
    mem::BackingStore store;
    mem::AddressMap map;
    std::vector<std::unique_ptr<PlainDimm>> dimms;
    std::unique_ptr<MemorySystem> memory;

    explicit Rig(unsigned channels = 1, std::size_t llc_bytes = 1 << 20)
        : map(makeGeometry(channels))
    {
        std::vector<mem::DimmDevice *> devices;
        for (unsigned c = 0; c < channels; ++c) {
            dimms.push_back(std::make_unique<PlainDimm>(store));
            devices.push_back(dimms.back().get());
        }
        CacheConfig cc;
        cc.size_bytes = llc_bytes;
        memory = std::make_unique<MemorySystem>(events, map, cc, devices);
    }

    static mem::DramGeometry
    makeGeometry(unsigned channels)
    {
        mem::DramGeometry g;
        g.channels = channels;
        return g;
    }

    /** First byte of channel @p c's capacity window. */
    Addr
    channelBase(unsigned c) const
    {
        return static_cast<Addr>(c) * map.geometry().channel_bytes;
    }
};

TEST(MemorySystem, WriteReadRoundTripThroughCache)
{
    Rig rig;
    Rng rng(1);
    std::vector<std::uint8_t> data(4096);
    rng.fill(data.data(), data.size());
    rig.memory->writeSync(0x10000, data.data(), data.size());

    std::vector<std::uint8_t> back(4096);
    rig.memory->readSync(0x10000, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(MemorySystem, DirtyDataReachesDramOnlyAfterFlush)
{
    Rig rig;
    std::uint8_t line[64];
    std::memset(line, 0x5a, sizeof(line));
    rig.memory->writeSync(0x2000, line, sizeof(line));

    // Still only in the cache: DRAM reads as zero.
    std::uint8_t dram[64];
    rig.store.read(0x2000, dram, sizeof(dram));
    EXPECT_EQ(dram[0], 0);

    rig.memory->flushSync(0x2000, 64);
    rig.store.read(0x2000, dram, sizeof(dram));
    EXPECT_EQ(dram[0], 0x5a);
    EXPECT_FALSE(rig.memory->llc().contains(0x2000));
}

TEST(MemorySystem, EvictionWritesBackThroughController)
{
    // Tiny LLC: streaming 4x its capacity forces dirty evictions.
    Rig rig(1, 64 * 1024);
    Rng rng(2);
    std::vector<std::uint8_t> data(256 * 1024);
    rng.fill(data.data(), data.size());
    rig.memory->writeSync(0x100000, data.data(), data.size());
    rig.events.run();

    EXPECT_GT(rig.memory->llc().stats().writebacks, 0u);
    // Early lines must already be in DRAM (evicted + written back).
    std::uint8_t dram[64];
    rig.store.read(0x100000, dram, sizeof(dram));
    EXPECT_EQ(0, std::memcmp(dram, data.data(), 64));
}

TEST(MemorySystem, ReadBackAfterEvictionIsCoherent)
{
    Rig rig(1, 64 * 1024);
    Rng rng(3);
    std::vector<std::uint8_t> data(512 * 1024);
    rng.fill(data.data(), data.size());
    rig.memory->writeSync(0x200000, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    rig.memory->readSync(0x200000, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(MemorySystem, MmioBypassesCache)
{
    Rig rig;
    std::uint8_t reg[64] = {0x77};
    bool done = false;
    rig.memory->mmioWrite(0xF0000000ULL, reg, [&](Tick) { done = true; });
    while (!done)
        rig.events.run();
    EXPECT_FALSE(rig.memory->llc().contains(0xF0000000ULL));

    std::uint8_t back[64] = {};
    done = false;
    rig.memory->mmioRead(0xF0000000ULL, back, [&](Tick) { done = true; });
    while (!done)
        rig.events.run();
    EXPECT_EQ(back[0], 0x77);
}

TEST(MemorySystem, MultiChannelLineInterleaveRoundTrip)
{
    // One quarter of the data in each channel's capacity window.
    Rig rig(4);
    Rng rng(4);
    std::vector<std::uint8_t> data(64 * 1024);
    rng.fill(data.data(), data.size());
    const std::size_t quarter = data.size() / 4;
    for (unsigned c = 0; c < 4; ++c) {
        const Addr addr = rig.channelBase(c) + 0x300000;
        rig.memory->writeSync(addr, data.data() + c * quarter, quarter);
        rig.memory->flushSync(addr, quarter);
    }
    std::vector<std::uint8_t> back(data.size());
    for (unsigned c = 0; c < 4; ++c)
        rig.memory->readSync(rig.channelBase(c) + 0x300000,
                             back.data() + c * quarter, quarter);
    EXPECT_EQ(back, data);

    // Traffic spread over all four controllers.
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_GT(rig.memory->controller(c).stats().bytesMoved(), 0u);
}

TEST(MemorySystem, DramBytesAggregatesChannels)
{
    // Half of the data in each of two channel windows.
    Rig rig(2);
    std::vector<std::uint8_t> data(8 * kPageSize, 0x11);
    const std::size_t half = data.size() / 2;
    for (unsigned c = 0; c < 2; ++c) {
        const Addr addr = rig.channelBase(c) + 0x400000;
        rig.memory->writeSync(addr, data.data() + c * half, half);
        rig.memory->flushSync(addr, half);
    }
    rig.events.run();
    EXPECT_GE(rig.memory->dramBytes(), data.size());
}

TEST(MemorySystem, FlushCleanLineIsCheap)
{
    Rig rig;
    std::uint8_t line[64];
    rig.memory->readSync(0, line, 64); // clean fill
    const Tick start = rig.events.now();
    rig.memory->flushSync(0, 64);
    const Tick clean = rig.events.now() - start;

    rig.memory->writeSync(0, line, 64); // dirty
    const Tick start2 = rig.events.now();
    rig.memory->flushSync(0, 64);
    const Tick dirty = rig.events.now() - start2;
    EXPECT_LT(clean, dirty);
}

/** The bytes the backing store holds for line @p i of a test region. */
std::array<std::uint8_t, kCacheLineSize>
linePattern(unsigned i)
{
    std::array<std::uint8_t, kCacheLineSize> line;
    for (unsigned b = 0; b < kCacheLineSize; ++b)
        line[b] = static_cast<std::uint8_t>(i * 131 + b * 7 + 1);
    return line;
}

TEST(MemorySystem, CompletionThatIssuesAReadReusesItsSlot)
{
    Rig rig;
    const auto a = linePattern(1);
    const auto b = linePattern(2);
    rig.store.write(0x4000, a.data(), kCacheLineSize);
    rig.store.write(0x8000, b.data(), kCacheLineSize);

    std::array<std::uint8_t, kCacheLineSize> got_a{}, got_b{};
    std::size_t live_in_callback = 99, live_after_reissue = 99;
    bool b_done = false;
    rig.memory->readLine(0x4000, got_a.data(), [&](Tick) {
        live_in_callback = rig.memory->pendingOps();
        rig.memory->readLine(0x8000, got_b.data(),
                             [&](Tick) { b_done = true; });
        live_after_reissue = rig.memory->pendingOps();
    });
    EXPECT_EQ(rig.memory->pendingOps(), 1u);
    rig.events.run();

    // The slot is freed before its callback runs, so the chained miss
    // takes that same slot (one live op, never two) and overwrites its
    // fill buffer — after the first fill already reached its caller.
    EXPECT_EQ(live_in_callback, 0u);
    EXPECT_EQ(live_after_reissue, 1u);
    EXPECT_TRUE(b_done);
    EXPECT_EQ(got_a, a);
    EXPECT_EQ(got_b, b);
    EXPECT_EQ(rig.memory->pendingOps(), 0u);
}

TEST(MemorySystem, PoolGrowsInsideCompletionCallbacks)
{
    // 200 cold misses take four 64-slot chunks. Each completion frees
    // its slot and issues two more misses, so the live count climbs
    // past 256 and the pool grows inside callbacks while earlier fills
    // still point into the older chunks (ASan checks none moved).
    Rig rig;
    constexpr unsigned kFirst = 200;
    constexpr unsigned kTotal = kFirst * 3;
    constexpr Addr kBase = 0x100000;
    for (unsigned i = 0; i < kTotal; ++i)
        rig.store.write(kBase + i * kCacheLineSize, linePattern(i).data(),
                        kCacheLineSize);

    std::vector<std::array<std::uint8_t, kCacheLineSize>> got(kTotal);
    std::vector<unsigned> calls(kTotal, 0);
    std::size_t peak = 0;
    std::function<void(unsigned)> issue = [&](unsigned i) {
        rig.memory->readLine(kBase + i * kCacheLineSize, got[i].data(),
                             [&, i](Tick) {
            ++calls[i];
            if (i < kFirst) {
                issue(kFirst + 2 * i);
                issue(kFirst + 2 * i + 1);
            }
            peak = std::max(peak, rig.memory->pendingOps());
        });
    };
    for (unsigned i = 0; i < kFirst; ++i)
        issue(i);
    rig.events.run();

    EXPECT_GT(peak, 256u);
    for (unsigned i = 0; i < kTotal; ++i) {
        EXPECT_EQ(calls[i], 1u) << "line " << i;
        EXPECT_EQ(got[i], linePattern(i)) << "line " << i;
    }
    EXPECT_EQ(rig.memory->pendingOps(), 0u);
}

/**
 * Five reads under a permanent injected ALERT_N storm, so each one
 * exhausts its retry budget and completes kDegraded, plus one dirty
 * flush that completes kOk. With @p far the channel sits behind a CXL
 * link, so every completion also crosses the link first.
 */
void
expectDegradedCountedOnce(bool far)
{
    Rig rig;
    mem::CxlLink link(rig.events, mem::CxlLinkConfig{});
    if (far)
        rig.memory->attachCxlLink(0, &link);
    fault::FaultPlan plan(3);
    plan.add(fault::Site::kAlertStorm);
    rig.memory->setFaultPlan(&plan);

    constexpr unsigned kReads = 5;
    std::vector<std::array<std::uint8_t, kCacheLineSize>> buf(kReads);
    unsigned calls = 0;
    for (unsigned i = 0; i < kReads; ++i)
        rig.memory->readLine(0x10000 + i * kCacheLineSize, buf[i].data(),
                             [&](Tick) { ++calls; });
    const auto line = linePattern(9);
    rig.memory->writeLine(0x20000, line.data(), [&](Tick) { ++calls; });
    rig.memory->flushLine(0x20000, [&](Tick) { ++calls; });
    rig.events.run();

    EXPECT_EQ(calls, kReads + 2);
    EXPECT_EQ(rig.memory->degradedReads(), kReads);
    EXPECT_EQ(rig.memory->controller(0).stats().degraded_reads, kReads);
    EXPECT_EQ(link.stats().transfers, far ? kReads + 1 : 0u);
    EXPECT_EQ(rig.memory->pendingOps(), 0u);
}

TEST(MemorySystem, DegradedCompletionsCountedOnceOnLocalChannel)
{
    expectDegradedCountedOnce(/*far=*/false);
}

TEST(MemorySystem, DegradedCompletionsCountedOnceOnCxlChannel)
{
    expectDegradedCountedOnce(/*far=*/true);
}

} // namespace
