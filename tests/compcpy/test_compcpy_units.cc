/**
 * @file
 * CompCpy software-stack units: the driver allocator, the adaptive
 * LLC probe's hysteresis, and Algorithm 2's bookkeeping (freePages
 * shadow, registration counts, alignment enforcement).
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/adaptive.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "topo/topology.h"

namespace {

using namespace sd;
using compcpy::Driver;
using compcpy::LlcContentionProbe;

TEST(Driver, AllocationsArePageAlignedAndDisjoint)
{
    Driver driver(1ULL << 20, 64ULL << 20);
    std::vector<std::pair<Addr, std::size_t>> ranges;
    for (std::size_t bytes : {1ul, 4096ul, 5000ul, 65536ul, 100ul}) {
        const Addr addr = driver.alloc(bytes);
        EXPECT_TRUE(isPageAligned(addr));
        for (const auto &[other, len] : ranges) {
            const bool overlap =
                addr < other + len &&
                other < addr + divCeil(bytes, kPageSize) * kPageSize;
            EXPECT_FALSE(overlap);
        }
        ranges.emplace_back(addr, divCeil(bytes, kPageSize) * kPageSize);
    }
}

TEST(Driver, ReleasedRangesAreReused)
{
    Driver driver(1ULL << 20, (1ULL << 20) + 64 * kPageSize);
    const Addr a = driver.alloc(16 * kPageSize);
    driver.release(a, 16 * kPageSize);
    const Addr b = driver.alloc(8 * kPageSize);
    EXPECT_EQ(b, a) << "first-fit should reuse the freed range";
}

/**
 * The allocator's policy before it gained a per-size index: first fit
 * over an address-ordered map of free ranges, split, no coalescing.
 * Kept here as the reference the indexed Driver must match call for
 * call, because its addresses pick every bank and row downstream.
 */
class MapFirstFit
{
  public:
    MapFirstFit(Addr base, std::size_t bytes) : next_(base), end_(base + bytes)
    {
    }

    Addr
    alloc(std::size_t bytes)
    {
        const std::size_t need = divCeil(bytes, kPageSize) * kPageSize;
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->second >= need) {
                const Addr addr = it->first;
                const std::size_t left = it->second - need;
                free_.erase(it);
                if (left > 0)
                    free_[addr + need] = left;
                return addr;
            }
        }
        EXPECT_LE(next_ + need, end_);
        const Addr addr = next_;
        next_ += need;
        return addr;
    }

    void
    release(Addr addr, std::size_t bytes)
    {
        free_[addr] = divCeil(bytes, kPageSize) * kPageSize;
    }

  private:
    Addr next_;
    Addr end_;
    std::map<Addr, std::size_t> free_;
};

TEST(Driver, MatchesMapFirstFitUnderChurn)
{
    constexpr Addr kBase = 1ULL << 20;
    constexpr std::size_t kBytes = 1ULL << 30;
    constexpr int kCalls = 10'000;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Driver driver(kBase, kBytes);
        MapFirstFit reference(kBase, kBytes);
        Rng rng(seed);
        std::vector<std::pair<Addr, std::size_t>> live;
        for (int call = 0; call < kCalls; ++call) {
            // Lean towards allocation so the free list and the bump
            // region both keep growing, with bursts of releases.
            const bool release = !live.empty() && rng.below(100) < 45;
            if (release) {
                const std::size_t pick = rng.below(live.size());
                const auto [addr, bytes] = live[pick];
                live[pick] = live.back();
                live.pop_back();
                driver.release(addr, bytes);
                reference.release(addr, bytes);
                continue;
            }
            // 1-17 pages, the last one partly used.
            const std::size_t bytes =
                rng.below(17) * kPageSize + 1 + rng.below(kPageSize);
            const Addr want = reference.alloc(bytes);
            const Addr got = driver.alloc(bytes);
            ASSERT_EQ(got, want) << "seed " << seed << " call " << call;
            live.emplace_back(got, bytes);
        }
    }
}

TEST(DriverDeathTest, ReleasingARangeTwiceAsserts)
{
    Driver driver(1ULL << 20, 1ULL << 24);
    const Addr a = driver.alloc(2 * kPageSize);
    driver.release(a, 2 * kPageSize);
    EXPECT_DEATH(driver.release(a, 2 * kPageSize), "released twice");
}

TEST(Driver, MmioAddressesFollowRegisterMap)
{
    Driver driver(1ULL << 20, 1ULL << 24);
    const auto base = driver.config().mmio_base;
    EXPECT_EQ(driver.mmio(smartdimm::MmioReg::kFreePages), base);
    EXPECT_EQ(driver.mmio(smartdimm::MmioReg::kRegister), base + 0x40);
    EXPECT_EQ(driver.mmio(smartdimm::MmioReg::kPendingList),
              base + 0x80);
}

TEST(AdaptiveProbe, HysteresisAroundThreshold)
{
    cache::CacheConfig cfg;
    cfg.size_bytes = 64 * 1024;
    cache::Cache llc(cfg);
    LlcContentionProbe probe(llc);

    // Feed enough windows of one miss rate that the EWMA settles on
    // it, so each step tests the band rather than the smoothing.
    Addr fresh = 1 << 20;
    auto settle = [&](double miss_rate) {
        for (int window = 0; window < 30; ++window) {
            // Misses: always-new addresses; hits: re-touch one line.
            const int total = 1000;
            const int misses = static_cast<int>(miss_rate * total);
            llc.access(0, false, cache::AllocClass::kCpu);
            for (int i = 0; i < misses; ++i) {
                llc.access(fresh, false, cache::AllocClass::kCpu);
                fresh += kCacheLineSize;
            }
            for (int i = 0; i < total - misses; ++i)
                llc.access(0, false, cache::AllocClass::kCpu);
            probe.sample();
        }
    };

    const double band = compcpy::kMissRateHysteresis;
    EXPECT_FALSE(probe.shouldOffload());
    settle(compcpy::kOffloadMissRate + band / 2); // inside band
    EXPECT_FALSE(probe.shouldOffload());
    settle(compcpy::kOffloadMissRate + 4 * band); // above band: offload
    EXPECT_TRUE(probe.shouldOffload());
    settle(compcpy::kOffloadMissRate - band / 2); // inside: stays
    EXPECT_TRUE(probe.shouldOffload());
    settle(compcpy::kOffloadMissRate - 4 * band); // below: back to CPU
    EXPECT_FALSE(probe.shouldOffload());
    EXPECT_EQ(probe.switches(), 2u);
}

TEST(AdaptiveProbe, EwmaSmoothsSpikes)
{
    cache::CacheConfig cfg;
    cfg.size_bytes = 64 * 1024;
    cache::Cache llc(cfg);
    LlcContentionProbe probe(llc);

    // Prime with a quiet window (the first sample seeds the EWMA).
    llc.access(0, false, cache::AllocClass::kCpu);
    for (int i = 0; i < 200; ++i)
        llc.access(0, false, cache::AllocClass::kCpu);
    probe.sample();
    const double primed = probe.missRateEwma();

    // One spiky 100%-miss window must move the EWMA only by alpha.
    Addr fresh = 1 << 22;
    for (int i = 0; i < 200; ++i) {
        llc.access(fresh, false, cache::AllocClass::kCpu);
        fresh += kCacheLineSize;
    }
    probe.sample();
    EXPECT_DOUBLE_EQ(probe.missRateEwma(),
                     primed + compcpy::kMissRateEwmaAlpha * (1 - primed));
    EXPECT_FALSE(probe.shouldOffload());
}

/** One-channel SmartDIMM system: a 1x1 topology with a 4 MB LLC. */
topo::TopologySpec
systemSpec()
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    return spec;
}

TEST(CompCpyUnits, StatsTrackCallsAndPages)
{
    topo::Topology rig(systemSpec());
    Rng rng(3);
    std::vector<std::uint8_t> data(4096);
    rng.fill(data.data(), data.size());

    for (int i = 0; i < 3; ++i) {
        const Addr sbuf = rig.slot(0).driver.alloc(4096);
        const Addr dbuf = rig.slot(0).driver.alloc(8192);
        rig.memory().writeSync(sbuf, data.data(), data.size());
        compcpy::CompCpyParams params;
        params.sbuf = sbuf;
        params.dbuf = dbuf;
        params.size = 4096;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = 10 + static_cast<std::uint64_t>(i);
        rng.fill(params.key, sizeof(params.key));
        rig.slot(0).queue.run(params);
        rig.slot(0).engine.useSync(dbuf, 8192);
    }

    EXPECT_EQ(rig.slot(0).engine.stats().calls, 3u);
    EXPECT_EQ(rig.slot(0).engine.stats().pages_offloaded, 6u); // 2 per call
    EXPECT_EQ(rig.slot(0).engine.stats().lines_copied, 3u * 64u);
    EXPECT_EQ(rig.slot(0).device.stats().registrations, 6u);
}

TEST(CompCpyUnits, FreePagesShadowAvoidsMmioPerCall)
{
    topo::Topology rig(systemSpec());
    Rng rng(4);
    std::vector<std::uint8_t> data(4096);
    rng.fill(data.data(), data.size());

    for (int i = 0; i < 8; ++i) {
        const Addr sbuf = rig.slot(0).driver.alloc(4096);
        const Addr dbuf = rig.slot(0).driver.alloc(8192);
        rig.memory().writeSync(sbuf, data.data(), data.size());
        compcpy::CompCpyParams params;
        params.sbuf = sbuf;
        params.dbuf = dbuf;
        params.size = 4096;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = 50 + static_cast<std::uint64_t>(i);
        rng.fill(params.key, sizeof(params.key));
        rig.slot(0).queue.run(params);
        rig.slot(0).engine.useSync(dbuf, 8192);
    }
    // The lazy refresh (Alg. 2 lines 8-9) touches MMIO only when the
    // shadow runs low — once here, not once per call.
    EXPECT_LE(rig.slot(0).engine.stats().freepages_refreshes, 2u);
    EXPECT_GT(rig.slot(0).engine.stats().lock_acquisitions, 0u);
}

TEST(CompCpyUnits, DestPagesAccountsForTagSpill)
{
    compcpy::CompCpyParams tls;
    tls.size = 4096;
    tls.ulp = smartdimm::UlpKind::kTlsEncrypt;
    EXPECT_EQ(compcpy::CompCpyEngine::destPages(tls), 2u);
    tls.size = 4000;
    EXPECT_EQ(compcpy::CompCpyEngine::destPages(tls), 1u);

    compcpy::CompCpyParams deflate;
    deflate.size = 4000;
    deflate.ulp = smartdimm::UlpKind::kDeflate;
    EXPECT_EQ(compcpy::CompCpyEngine::destPages(deflate), 1u);
}

} // namespace
