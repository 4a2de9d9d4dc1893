/**
 * @file
 * ShardDispatcher under open-loop load: Poisson arrivals over a pool
 * of flows, fixed before the run starts, so an arrival never waits
 * for an earlier completion. Each op is placed by the dispatcher, its
 * result is USEd and checked against software AES-GCM, its buffers
 * come from and return to the slot it was placed on, and a flow
 * unpins once its last op completes. An arrival that finds no
 * room (the CPU path, or a full queue its flow is pinned to) waits and
 * asks again, so every op ends on a device.
 *
 *  - Every op completes, on 1x1 and on a tiered topology whose flows
 *    change tiers while their ops are in flight.
 *  - The same seed replays the same completion ticks and counters.
 *  - Under the same load, 4x2 finishes sooner than 1x1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/queue.h"
#include "crypto/aes_gcm.h"
#include "crypto/tls_record.h"
#include "topo/dispatcher.h"
#include "topo/topology.h"

namespace {

using namespace sd;
using topo::ShardDispatcher;
using topo::Topology;
using topo::TopologySpec;

constexpr std::size_t kOps = 256;
constexpr std::uint64_t kFlows = 24;
constexpr std::size_t kOpBytes = 4096;

/** Wait before an arrival the dispatcher could not place asks again. */
constexpr Tick kRetryTicks = 1'000'000; // 1 us

/** What one open-loop run produced. */
struct LoadResult
{
    std::vector<Tick> arrival;   ///< per op
    std::vector<Tick> completed; ///< per op, 0 until its record lands
    std::size_t failed = 0;      ///< records not kSuccess
    std::size_t wrong = 0;       ///< results unlike software AES-GCM
    std::size_t retries = 0;     ///< arrivals that found no room
    topo::DispatchStats stats;

    Tick
    makespan() const
    {
        return *std::max_element(completed.begin(), completed.end()) -
               arrival.front();
    }

    Tick
    maxLatency() const
    {
        Tick worst = 0;
        for (std::size_t i = 0; i < arrival.size(); ++i)
            worst = std::max(worst, completed[i] - arrival[i]);
        return worst;
    }
};

/** One open-loop run of kOps TLS-4K ops over kFlows flows. */
class OpenLoad
{
  public:
    OpenLoad(const TopologySpec &spec, std::uint64_t seed)
        : topo_(spec), dispatcher_(topo_), rng_(seed),
          payload_(kOpBytes), flow_(kOps)
    {
        rng_.fill(payload_.data(), payload_.size());
        rng_.fill(key_, sizeof(key_));
        result_.arrival.resize(kOps);
        result_.completed.assign(kOps, 0);
    }

    /** Run at @p ops_per_sec offered load. */
    LoadResult
    run(double ops_per_sec)
    {
        const double mean_gap = 1e12 / ops_per_sec; // ps
        Tick t = 0;
        for (std::size_t i = 0; i < kOps; ++i) {
            t += std::max<Tick>(
                1, static_cast<Tick>(rng_.exponential(mean_gap)));
            result_.arrival[i] = t;
            flow_[i] = rng_.below(kFlows);
            topo_.events().schedule(t, [this, i] { arrive(i); });
        }
        topo_.events().run();
        result_.stats = dispatcher_.stats();
        return result_;
    }

  private:
    void
    arrive(std::size_t i)
    {
        const std::uint64_t flow = flow_[i];
        const unsigned slot = dispatcher_.place(flow);
        if (slot == ShardDispatcher::kCpuPath) {
            retry(i);
            return;
        }
        Topology::Slot &dev = topo_.slot(slot);
        compcpy::CompCpyParams params;
        params.size = kOpBytes;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = 1 + i;
        std::memcpy(params.key, key_, sizeof(key_));
        params.iv[4] = static_cast<std::uint8_t>(i >> 8);
        params.iv[5] = static_cast<std::uint8_t>(i);
        params.sbuf = dev.driver.alloc(kOpBytes);
        const std::size_t dbytes =
            compcpy::CompCpyEngine::destPages(params) * kPageSize;
        params.dbuf = dev.driver.alloc(dbytes);
        // The payload is DMA-resident in DRAM (a NIC staged it); the
        // engine's own sbuf flush orders it.
        topo_.store().write(params.sbuf, payload_.data(),
                            payload_.size());
        ++outstanding_[flow];

        // USE the result (Alg. 2 l. 32) before its buffers go back,
        // and release into the slot that allocated them: the flow's
        // pin can move to another tier while this op is in flight.
        auto done = [this, i, flow, slot, params,
                     dbytes](const compcpy::CompletionRecord &record) {
            result_.completed[i] = topo_.events().now();
            result_.failed +=
                record.status != compcpy::CompletionStatus::kSuccess;
            topo_.slot(slot).engine.use(
                params.dbuf, dbytes, [this, flow, slot, params, dbytes] {
                    check(params);
                    Topology::Slot &owner = topo_.slot(slot);
                    owner.driver.release(params.sbuf, params.size);
                    owner.driver.release(params.dbuf, dbytes);
                    if (--outstanding_[flow] == 0)
                        dispatcher_.releaseFlow(flow);
                });
        };
        if (!dispatcher_.submit(slot, compcpy::Descriptor::single(params),
                                0, std::move(done))) {
            // A pinned flow keeps its slot even when that queue is
            // full: give the buffers back and ask again later.
            dev.driver.release(params.sbuf, params.size);
            dev.driver.release(params.dbuf, dbytes);
            if (--outstanding_[flow] == 0)
                dispatcher_.releaseFlow(flow);
            retry(i);
        }
    }

    /** Compare the record in DRAM with software AES-GCM. */
    void
    check(const compcpy::CompCpyParams &params)
    {
        const crypto::GcmContext gcm(key_, crypto::Aes::KeySize::k128);
        std::vector<std::uint8_t> expect(kOpBytes + crypto::kTlsTagSize);
        const crypto::GcmTag tag = gcm.encrypt(
            params.iv, payload_.data(), kOpBytes, expect.data());
        std::memcpy(expect.data() + kOpBytes, tag.data(), tag.size());
        std::vector<std::uint8_t> got(expect.size());
        topo_.store().read(params.dbuf, got.data(), got.size());
        result_.wrong += got != expect;
    }

    void
    retry(std::size_t i)
    {
        ++result_.retries;
        topo_.events().scheduleIn(kRetryTicks, [this, i] { arrive(i); });
    }

    Topology topo_;
    ShardDispatcher dispatcher_;
    Rng rng_;
    std::vector<std::uint8_t> payload_;
    std::uint8_t key_[16];
    std::vector<std::uint64_t> flow_; ///< per op
    std::unordered_map<std::uint64_t, unsigned> outstanding_;
    LoadResult result_;
};

TopologySpec
shape(unsigned channels, unsigned dimms, unsigned cxl_channels = 0)
{
    TopologySpec spec;
    spec.channels = channels;
    spec.dimms_per_channel = dimms;
    spec.cxl_channels = cxl_channels;
    return spec;
}

void
expectEveryOpCompleted(const LoadResult &r)
{
    for (std::size_t i = 0; i < kOps; ++i)
        ASSERT_GT(r.completed[i], r.arrival[i]) << "op " << i;
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.wrong, 0u);
}

TEST(OpenLoad, EveryOpCompletesOnOneByOne)
{
    const LoadResult r = OpenLoad(shape(1, 1), 42).run(200e3);
    expectEveryOpCompleted(r);
}

TEST(OpenLoad, EveryOpCompletesWhileFlowsChangeTiers)
{
    // With a far tier, flows turn hot and migrate to the local tier
    // (or lose their pin when both tiers are saturated) while their
    // ops are in flight; every op must still complete and free its
    // buffers on the slot that allocated them.
    for (const double rate : {800e3, 3e6}) {
        SCOPED_TRACE(rate);
        const LoadResult r = OpenLoad(shape(1, 1, 1), 42).run(rate);
        expectEveryOpCompleted(r);
        EXPECT_GE(r.stats.migrations_to_local, 1u);
        EXPECT_GE(r.stats.tier_cxl_placements, 1u);
    }
}

TEST(OpenLoad, SameSeedReplaysIdentically)
{
    const LoadResult a = OpenLoad(shape(2, 2, 1), 7).run(800e3);
    const LoadResult b = OpenLoad(shape(2, 2, 1), 7).run(800e3);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.stats.placements, b.stats.placements);
    EXPECT_EQ(a.stats.home_hits, b.stats.home_hits);
    EXPECT_EQ(a.stats.shed_to_sibling, b.stats.shed_to_sibling);
    EXPECT_EQ(a.stats.migrations_to_local, b.stats.migrations_to_local);
    EXPECT_EQ(a.stats.migrations_to_cxl, b.stats.migrations_to_cxl);
}

TEST(OpenLoad, ScaleOutFinishesSooner)
{
    // Far more load than one DIMM absorbs: 4x2 must drain the same
    // arrivals in a shorter makespan and with a lighter worst case.
    const LoadResult one = OpenLoad(shape(1, 1), 42).run(3e6);
    const LoadResult eight = OpenLoad(shape(4, 2), 42).run(3e6);
    expectEveryOpCompleted(one);
    expectEveryOpCompleted(eight);
    ASSERT_EQ(one.arrival, eight.arrival) << "same offered load";
    EXPECT_LT(eight.makespan(), one.makespan());
    EXPECT_LT(eight.maxLatency(), one.maxLatency());
    EXPECT_GT(one.retries, eight.retries)
        << "1x1 saturates; 4x2 has room to shed to";
}

} // namespace
