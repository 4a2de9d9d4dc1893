/**
 * @file
 * Two-tier (local DDR4 vs CXL.mem) placement suite.
 *
 *  - SD_CXL grammar parsing and far-channel topology construction.
 *  - HeatClassifier: threshold behaviour and epoch decay.
 *  - Tiered ShardDispatcher policy: cold flows home on the far tier,
 *    hot flows on the local tier, tier mismatches migrate (with
 *    counters), a saturated/degraded tier sheds to the other one, and
 *    topologies without far slots keep the legacy policy verbatim.
 *  - Bit-exactness: TLS-4K and deflate produce identical bytes on a
 *    CXL-tier slot and a local-DIMM slot (single op and the PR 8
 *    striping pattern) — the far link changes timing, never data.
 *  - Far links register "cxl.chN" stats; local topologies don't.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "common/random.h"
#include "compress/deflate.h"
#include "topo/dispatcher.h"
#include "topo/heat.h"
#include "topo/topology.h"
#include "trace/trace.h"

namespace {

using namespace sd;
using topo::HeatClassifier;
using topo::HeatConfig;
using topo::ShardDispatcher;
using topo::Topology;
using topo::TopologySpec;

// ---------------------------------------------------------------------------
// SD_CXL grammar
// ---------------------------------------------------------------------------

TEST(CxlSpec, ParsesCountLatencyAndRate)
{
    const TopologySpec base;
    const auto bare = TopologySpec::parseCxl("2", base);
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->cxl_channels, 2u);

    const auto with_ns = TopologySpec::parseCxl("1@300", base);
    ASSERT_TRUE(with_ns.has_value());
    EXPECT_EQ(with_ns->cxl_channels, 1u);
    EXPECT_DOUBLE_EQ(with_ns->cxl_link.round_trip_ns, 300.0);

    const auto full = TopologySpec::parseCxl("1@600@32", base);
    ASSERT_TRUE(full.has_value());
    EXPECT_DOUBLE_EQ(full->cxl_link.round_trip_ns, 600.0);
    EXPECT_DOUBLE_EQ(full->cxl_link.gbps, 32.0);
    EXPECT_EQ(full->totalChannels(), base.channels + 1);
}

TEST(CxlSpec, RejectsMalformedSpecs)
{
    const TopologySpec base;
    for (const char *bad : {"", "x", "@600", "1@", "1@0", "1@600@",
                            "1@600@0", "1@-3", "1 @600", "1@600@32@9",
                            // wrapped or out-of-range count, infinite
                            // latency or rate
                            "4294967297", "4294967297@600",
                            "99999999999999999999999", "1@1e999",
                            "1@600@1e999"})
        EXPECT_FALSE(TopologySpec::parseCxl(bad, base).has_value())
            << bad;
}

// ---------------------------------------------------------------------------
// Mixed topology construction
// ---------------------------------------------------------------------------

TEST(MixedTopology, AppendsFarChannelsAfterLocalOnes)
{
    TopologySpec spec;
    spec.channels = 1;
    spec.cxl_channels = 1;
    Topology topo(spec);

    ASSERT_EQ(topo.slotCount(), 2u);
    EXPECT_EQ(topo.localChannels(), 1u);
    EXPECT_FALSE(topo.isFarSlot(0));
    EXPECT_TRUE(topo.isFarSlot(1));
    EXPECT_EQ(topo.cxlLink(0), nullptr)
        << "local channels must not pay the link";
    EXPECT_NE(topo.cxlLink(1), nullptr);
}

TEST(MixedTopology, FarChannelTrafficCrossesTheLink)
{
    TopologySpec spec;
    spec.channels = 1;
    spec.cxl_channels = 1;
    Topology topo(spec);

    Rng rng(3);
    std::vector<std::uint8_t> data(4096);
    rng.fill(data.data(), data.size());

    const Addr local = topo.slot(0u).driver.alloc(data.size());
    topo.memory().writeSync(local, data.data(), data.size());
    topo.memory().flushSync(local, data.size());
    EXPECT_EQ(topo.cxlLink(1)->stats().transfers, 0u)
        << "local traffic must not touch the far link";

    const Addr far = topo.slot(1u).driver.alloc(data.size());
    topo.memory().writeSync(far, data.data(), data.size());
    topo.memory().flushSync(far, data.size());
    EXPECT_GE(topo.cxlLink(1)->stats().transfers,
              data.size() / kCacheLineSize)
        << "every flushed far line crosses the link";
}

TEST(MixedTopology, FarLinkRegistersCxlStats)
{
    TopologySpec spec;
    spec.channels = 1;
    spec.cxl_channels = 1;
    Topology topo(spec);
    trace::StatsRegistry registry;
    topo.registerStats(registry);
    std::ostringstream os;
    registry.dumpJson(os);
    EXPECT_NE(os.str().find("\"cxl.ch1\""), std::string::npos);

    Topology local{TopologySpec{}};
    trace::StatsRegistry local_registry;
    local.registerStats(local_registry);
    std::ostringstream local_os;
    local_registry.dumpJson(local_os);
    EXPECT_EQ(local_os.str().find("\"cxl."), std::string::npos)
        << "a local-only topology must not register link stats";
}

// ---------------------------------------------------------------------------
// HeatClassifier
// ---------------------------------------------------------------------------

TEST(HeatClassifier, ColdUntilThresholdTouches)
{
    HeatConfig config;
    config.hot_threshold = 3;
    HeatClassifier heat(config);

    EXPECT_FALSE(heat.touch(7));
    EXPECT_FALSE(heat.touch(7));
    EXPECT_TRUE(heat.touch(7));
    EXPECT_TRUE(heat.hot(7));
    EXPECT_FALSE(heat.hot(8)) << "untouched keys are cold";
}

TEST(HeatClassifier, EpochDecayCoolsIdleKeys)
{
    HeatConfig config;
    config.hot_threshold = 3;
    config.epoch_touches = 4;
    HeatClassifier heat(config);

    heat.touch(1);
    heat.touch(1);
    heat.touch(1); // hot at 3
    EXPECT_TRUE(heat.hot(1));

    // One more touch closes the epoch: every count halves (3 -> 1),
    // so the idle key cools below the threshold.
    heat.touch(2);
    EXPECT_FALSE(heat.hot(1));
    EXPECT_EQ(heat.tracked(), 2u);
}

// ---------------------------------------------------------------------------
// Tiered dispatch
// ---------------------------------------------------------------------------

TopologySpec
mixedSpec()
{
    TopologySpec spec;
    spec.channels = 1;
    spec.cxl_channels = 1;
    return spec;
}

TEST(TieredDispatch, ColdFlowsHomeOnTheFarTier)
{
    Topology topo(mixedSpec());
    ShardDispatcher dispatcher(topo);

    const unsigned placed = dispatcher.place(/*flow=*/5);
    EXPECT_TRUE(topo.isFarSlot(placed))
        << "a first-touch (cold) flow belongs on the far tier";
    EXPECT_EQ(dispatcher.stats().tier_cxl_placements, 1u);
    EXPECT_EQ(dispatcher.stats().tier_local_placements, 0u);
}

TEST(TieredDispatch, HotFlowsMigrateToTheLocalTier)
{
    Topology topo(mixedSpec());
    topo::DispatcherConfig config;
    config.heat.hot_threshold = 3;
    ShardDispatcher dispatcher(topo, config);

    const std::uint64_t flow = 5;
    const unsigned cold = dispatcher.place(flow);
    EXPECT_TRUE(topo.isFarSlot(cold));
    EXPECT_EQ(dispatcher.place(flow), cold) << "still cold: pinned";

    // Third touch crosses the threshold: the pin migrates tiers.
    const unsigned hot = dispatcher.place(flow);
    EXPECT_FALSE(topo.isFarSlot(hot));
    EXPECT_EQ(dispatcher.stats().migrations_to_local, 1u);
    EXPECT_EQ(dispatcher.place(flow), hot) << "hot and pinned: stable";
    EXPECT_EQ(dispatcher.stats().migrations_to_local, 1u);
}

TEST(TieredDispatch, CooledFlowsMigrateBackToTheFarTier)
{
    Topology topo(mixedSpec());
    topo::DispatcherConfig config;
    config.heat.hot_threshold = 3;
    config.heat.epoch_touches = 6;
    ShardDispatcher dispatcher(topo, config);

    const std::uint64_t flow = 5;
    dispatcher.place(flow);
    dispatcher.place(flow);
    const unsigned hot = dispatcher.place(flow); // count 3: hot, local
    EXPECT_FALSE(topo.isFarSlot(hot));

    // Three other-flow touches close the 6-touch epoch and halve the
    // counts (3 -> 1); the cooled flow's next placement migrates back.
    dispatcher.place(100);
    dispatcher.place(101);
    dispatcher.place(102);
    const unsigned cooled = dispatcher.place(flow);
    EXPECT_TRUE(topo.isFarSlot(cooled));
    EXPECT_EQ(dispatcher.stats().migrations_to_cxl, 1u);
}

TEST(TieredDispatch, DegradedFarTierShedsToLocal)
{
    Topology topo(mixedSpec());
    ShardDispatcher dispatcher(topo);
    dispatcher.setDegraded(1, true); // the only far slot

    const unsigned placed = dispatcher.place(/*flow=*/5);
    EXPECT_FALSE(topo.isFarSlot(placed))
        << "a cold flow must shed across tiers before the CPU path";
    EXPECT_EQ(dispatcher.stats().tier_local_placements, 1u);

    // With both tiers down, the CPU path remains the backstop.
    dispatcher.setDegraded(0, true);
    EXPECT_EQ(dispatcher.place(/*flow=*/6), ShardDispatcher::kCpuPath);
    EXPECT_GE(dispatcher.stats().shed_to_cpu, 1u);
}

TEST(TieredDispatch, LocalOnlyTopologyKeepsLegacyCounters)
{
    TopologySpec spec;
    spec.channels = 2;
    Topology topo(spec);
    ShardDispatcher dispatcher(topo);

    for (std::uint64_t flow = 0; flow < 8; ++flow)
        dispatcher.place(flow);
    EXPECT_EQ(dispatcher.stats().tier_local_placements, 0u);
    EXPECT_EQ(dispatcher.stats().tier_cxl_placements, 0u);
    EXPECT_EQ(dispatcher.stats().migrations_to_local, 0u);
    EXPECT_EQ(dispatcher.stats().migrations_to_cxl, 0u);
}

// ---------------------------------------------------------------------------
// Bit-exactness across tiers (the far link changes timing, not data)
// ---------------------------------------------------------------------------

/** One record on @p slot; @return output bytes. */
std::vector<std::uint8_t>
runOnSlot(Topology &topo, Topology::Slot &slot,
          const compcpy::CompCpyParams &base,
          const std::vector<std::uint8_t> &payload)
{
    compcpy::CompCpyParams params = base;
    params.sbuf = slot.driver.alloc(payload.size());
    const std::size_t dbytes =
        compcpy::CompCpyEngine::destPages(params) * kPageSize;
    params.dbuf = slot.driver.alloc(dbytes);
    topo.memory().writeSync(params.sbuf, payload.data(),
                            payload.size());
    slot.engine.run(params);
    slot.engine.useSync(params.dbuf, dbytes);
    return slot.engine.readResult(params.dbuf, dbytes);
}

TEST(TierBitExactness, TlsRecordMatchesLocalDimm)
{
    Rng rng(61);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());

    compcpy::CompCpyParams base;
    base.size = plain.size();
    base.ulp = smartdimm::UlpKind::kTlsEncrypt;
    base.message_id = 1;
    rng.fill(base.key, sizeof(base.key));
    rng.fill(base.iv.data(), base.iv.size());

    Topology topo(mixedSpec());
    const auto on_local = runOnSlot(topo, topo.slot(0u), base, plain);
    const auto on_cxl = runOnSlot(topo, topo.slot(1u), base, plain);
    EXPECT_EQ(on_cxl, on_local)
        << "the CXL tier must be bit-exact with a local DIMM";
}

TEST(TierBitExactness, DeflatePageMatchesLocalDimmAndDecodes)
{
    std::vector<std::uint8_t> staged(kPageSize, 0);
    for (std::size_t i = 0; i < 4000; ++i)
        staged[i] = static_cast<std::uint8_t>("far tier!"[i % 9]);

    compcpy::CompCpyParams base;
    base.size = 4000;
    base.ordered = true;
    base.ulp = smartdimm::UlpKind::kDeflate;
    base.message_id = 2;

    Topology topo(mixedSpec());
    const auto on_local = runOnSlot(topo, topo.slot(0u), base, staged);
    const auto on_cxl = runOnSlot(topo, topo.slot(1u), base, staged);
    EXPECT_EQ(on_cxl, on_local);

    // The far-tier stream still decodes to the original payload.
    const std::size_t stream_len = on_cxl[0] | (on_cxl[1] << 8);
    const auto decoded =
        compress::deflateDecompress(on_cxl.data() + 2, stream_len);
    EXPECT_EQ(decoded,
              std::vector<std::uint8_t>(staged.begin(),
                                        staged.begin() + 4000));
}

/** Stage + run one striped message, all chunks forced onto @p slot. */
std::vector<std::uint8_t>
runForcedStripe(Topology &topo, ShardDispatcher &dispatcher,
                const compcpy::CompCpyParams &base,
                const std::vector<std::uint8_t> &payload, int force_slot)
{
    auto plan = dispatcher.planStripe(base, /*flow=*/5, force_slot);
    std::size_t off = 0;
    for (const auto &chunk : plan.chunks) {
        const std::size_t padded =
            divCeil(chunk.params.size, kCacheLineSize) * kCacheLineSize;
        std::vector<std::uint8_t> chunk_bytes(padded, 0);
        std::memcpy(chunk_bytes.data(), payload.data() + off,
                    chunk.params.size);
        topo.memory().writeSync(chunk.params.sbuf, chunk_bytes.data(),
                                padded);
        topo.memory().flushSync(chunk.params.sbuf, padded);
        off += chunk.params.size;
    }
    compcpy::CompletionStatus status =
        compcpy::CompletionStatus::kBailout;
    dispatcher.submitStripe(
        plan, [&](compcpy::CompletionStatus s) { status = s; });
    topo.events().run();
    EXPECT_EQ(status, compcpy::CompletionStatus::kSuccess);
    auto bytes = dispatcher.readStripeResult(plan);
    dispatcher.releaseStripe(plan);
    return bytes;
}

TEST(TierBitExactness, StripedTlsMatchesAcrossTiers)
{
    // The PR 8 striping pattern, with the two homes on different
    // tiers: identical chunking forced onto the CXL slot must emit
    // the same bytes as onto the local slot.
    const std::size_t total = 32 * 1024;
    Rng rng(67);
    std::vector<std::uint8_t> payload(total);
    rng.fill(payload.data(), payload.size());

    compcpy::CompCpyParams base;
    base.size = total;
    base.ulp = smartdimm::UlpKind::kTlsEncrypt;
    base.message_id = 300;
    rng.fill(base.key, sizeof(base.key));
    rng.fill(base.iv.data(), base.iv.size());

    Topology local_topo(mixedSpec());
    ShardDispatcher local(local_topo);
    const auto on_local =
        runForcedStripe(local_topo, local, base, payload, 0);

    Topology far_topo(mixedSpec());
    ShardDispatcher far(far_topo);
    const auto on_cxl =
        runForcedStripe(far_topo, far, base, payload, 1);
    EXPECT_EQ(on_cxl, on_local);
}

TEST(TierBitExactness, StripedDeflateMatchesAcrossTiers)
{
    const std::size_t total = 12000;
    std::vector<std::uint8_t> payload(total);
    for (std::size_t i = 0; i < total; ++i)
        payload[i] = static_cast<std::uint8_t>("cxl strip"[i % 9]);

    compcpy::CompCpyParams base;
    base.size = total;
    base.ordered = true;
    base.ulp = smartdimm::UlpKind::kDeflate;
    base.message_id = 400;

    Topology local_topo(mixedSpec());
    ShardDispatcher local(local_topo);
    const auto on_local =
        runForcedStripe(local_topo, local, base, payload, 0);

    Topology far_topo(mixedSpec());
    ShardDispatcher far(far_topo);
    const auto on_cxl =
        runForcedStripe(far_topo, far, base, payload, 1);
    EXPECT_EQ(on_cxl, on_local);
}

} // namespace
