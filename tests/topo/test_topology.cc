/**
 * @file
 * Topology + ShardDispatcher suite.
 *
 *  - TopologySpec parsing (the SD_TOPOLOGY knob grammar).
 *  - 1x1 equivalence: the Topology factory must be byte-identical to
 *    the legacy hand-wired single-DIMM rig — same golden trace, same
 *    output bytes — so every existing baseline survives the refactor.
 *  - 2x2 equivalence: every slot of a scaled-out topology produces
 *    the same record bytes as the 1x1 device for the same op.
 *  - Shard placement: hash-home affinity, flow pinning (the ordered-
 *    fence guarantee), shedding to siblings under saturation or
 *    degradation, CPU fallback when everything is saturated, and the
 *    auto-degrade tracker.
 *  - Striping: a striped message is bit-exact with the same chunks on
 *    a single DIMM for every ULP, and ordered deflate chunks crossing
 *    DIMMs still decode (the cross-DIMM fence test).
 *  - Per-device stat naming and scoped fault-plan addressing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compress/deflate.h"
#include "fault/fault.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "smartdimm/deflate_dsa.h"
#include "topo/dispatcher.h"
#include "topo/topology.h"
#include "trace/trace.h"

#ifndef SD_GOLDEN_DIR
#define SD_GOLDEN_DIR "."
#endif

namespace {

using namespace sd;
using topo::ShardDispatcher;
using topo::Topology;
using topo::TopologySpec;

// ---------------------------------------------------------------------------
// TopologySpec parsing
// ---------------------------------------------------------------------------

TEST(TopologySpec, ParsesChannelsByDimms)
{
    const auto spec = TopologySpec::parse("2x2");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->channels, 2u);
    EXPECT_EQ(spec->dimms_per_channel, 2u);

    const auto tall = TopologySpec::parse("4X2");
    ASSERT_TRUE(tall.has_value());
    EXPECT_EQ(tall->channels, 4u);
    EXPECT_EQ(tall->dimms_per_channel, 2u);
}

TEST(TopologySpec, BareCountMeansOneDimmPerChannel)
{
    const auto spec = TopologySpec::parse("4");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->channels, 4u);
    EXPECT_EQ(spec->dimms_per_channel, 1u);
}

TEST(TopologySpec, RejectsMalformedShapes)
{
    for (const char *bad :
         {"", "x", "0x2", "2x0", "axb", "2x2x2", "2x", "-1x2", "2 x2",
          // counts that wrap when narrowed to unsigned, or set ERANGE
          "4294967296", "4294967297x1", "1x4294967297",
          "99999999999999999999999x1"})
        EXPECT_FALSE(TopologySpec::parse(bad).has_value()) << bad;
}

// ---------------------------------------------------------------------------
// 1x1 equivalence with the legacy hand-wired rig
// ---------------------------------------------------------------------------

/** The golden workload of test_golden_trace, driven through an
 *  arbitrary engine (one 4 KB TLS CompCpy + USE, DDR mirror on). */
std::string
traceGoldenWorkload(cache::MemorySystem &memory, compcpy::Driver &driver,
                    compcpy::CompCpyEngine &engine)
{
    auto &tr = trace::tracer();
    tr.clear();
    tr.enable(/*capture_ddr=*/true);

    Rng rng(7);
    std::vector<std::uint8_t> plaintext(4096);
    rng.fill(plaintext.data(), plaintext.size());

    const Addr sbuf = driver.alloc(4096);
    const Addr dbuf = driver.alloc(8192);
    memory.writeSync(sbuf, plaintext.data(), plaintext.size());

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = plaintext.size();
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 1;
    rng.fill(params.key, sizeof(params.key));
    rng.fill(params.iv.data(), params.iv.size());
    engine.run(params);
    engine.useSync(dbuf, 8192);

    std::ostringstream csv;
    tr.dumpCsv(csv);
    tr.disable();
    tr.clear();
    return csv.str();
}

TEST(TopologyEquivalence, OneByOneReproducesLegacyRigTrace)
{
    // The reference: a hand-wired 1x1 rig. This is one of the few
    // places that wires devices directly; everything else, the
    // golden-trace test included, goes through the factory.
    std::string legacy;
    {
        EventQueue events;
        mem::BackingStore dram;
        mem::DramGeometry geometry;
        geometry.channels = 1;
        mem::AddressMap map(geometry);
        smartdimm::BufferDevice dimm(events, map, dram);
        cache::CacheConfig llc;
        llc.size_bytes = 4ull << 20;
        cache::MemorySystem memory(events, map, llc, {&dimm});
        compcpy::Driver driver(1ULL << 20, 64ULL << 20);
        compcpy::CompCpyEngine::SharedState shared;
        compcpy::CompCpyEngine engine(memory, driver, shared);
        legacy = traceGoldenWorkload(memory, driver, engine);
    }

    std::string factory;
    {
        TopologySpec spec;
        spec.llc.size_bytes = 4ull << 20;
        Topology topo(spec);
        factory = traceGoldenWorkload(topo.memory(),
                                      topo.slot(0u).driver,
                                      topo.slot(0u).engine);
    }
    EXPECT_EQ(factory, legacy)
        << "a 1x1 Topology must be byte-identical to direct wiring";
}

TEST(TopologyEquivalence, OneByOneMatchesCheckedInGoldenTrace)
{
    TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    Topology topo(spec);
    const std::string got = traceGoldenWorkload(
        topo.memory(), topo.slot(0u).driver, topo.slot(0u).engine);

    const std::string path =
        std::string(SD_GOLDEN_DIR) + "/compcpy_tls_4k.golden";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::stringstream want;
    want << in.rdbuf();

    std::istringstream got_s(got), want_s(want.str());
    std::string got_line, want_line;
    std::size_t line = 0;
    while (std::getline(want_s, want_line)) {
        ++line;
        ASSERT_TRUE(std::getline(got_s, got_line))
            << "trace truncated at golden line " << line;
        ASSERT_EQ(got_line, want_line)
            << "first divergence at line " << line;
    }
    EXPECT_FALSE(std::getline(got_s, got_line))
        << "trace has extra rows past golden line " << line;
}

// ---------------------------------------------------------------------------
// 2x2 equivalence
// ---------------------------------------------------------------------------

/** One 4 KB TLS record on @p slot; @return ciphertext || tag. */
std::vector<std::uint8_t>
runTlsOnSlot(Topology &topo, Topology::Slot &slot,
             const std::uint8_t key[16], const crypto::GcmIv &iv,
             const std::vector<std::uint8_t> &plain)
{
    const Addr sbuf = slot.driver.alloc(plain.size());
    const Addr dbuf = slot.driver.alloc(2 * kPageSize);
    topo.memory().writeSync(sbuf, plain.data(), plain.size());

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = plain.size();
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 1;
    std::memcpy(params.key, key, 16);
    params.iv = iv;
    slot.engine.run(params);
    slot.engine.useSync(dbuf, 2 * kPageSize);
    return slot.engine.readResult(dbuf, plain.size() + 16);
}

TEST(TopologyEquivalence, EverySlotOfTwoByTwoMatchesOneByOne)
{
    Rng rng(31);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, sizeof(key));
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    std::vector<std::uint8_t> reference;
    {
        Topology topo{TopologySpec{}};
        reference =
            runTlsOnSlot(topo, topo.slot(0u), key, iv, plain);
    }
    ASSERT_EQ(reference.size(), plain.size() + 16);

    TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;
    Topology topo(spec);
    ASSERT_EQ(topo.slotCount(), 4u);
    for (unsigned s = 0; s < topo.slotCount(); ++s)
        EXPECT_EQ(runTlsOnSlot(topo, topo.slot(s), key, iv, plain),
                  reference)
            << "slot " << s;
}

TEST(Topology, SlotsOwnDisjointMmioWindows)
{
    TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;
    Topology topo(spec);
    std::vector<Addr> bases;
    for (unsigned s = 0; s < topo.slotCount(); ++s) {
        Topology::Slot &slot = topo.slot(s);
        const Addr base = slot.device.config().mmio_base;
        EXPECT_EQ(base, slot.base + spec.device.mmio_base);
        for (const Addr other : bases)
            EXPECT_NE(base, other);
        bases.push_back(base);
    }
}

// ---------------------------------------------------------------------------
// Shard placement
// ---------------------------------------------------------------------------

TEST(ShardDispatcher, HomeSlotIsStableAndInRange)
{
    TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;
    Topology topo(spec);
    ShardDispatcher dispatcher(topo);
    for (std::uint64_t flow = 0; flow < 256; ++flow) {
        const unsigned home = dispatcher.homeSlot(flow);
        EXPECT_LT(home, topo.slotCount());
        EXPECT_EQ(home, dispatcher.homeSlot(flow));
    }
}

TEST(ShardDispatcher, FlowsSpreadAcrossSlots)
{
    TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;
    Topology topo(spec);
    ShardDispatcher dispatcher(topo);
    std::vector<unsigned> homes(topo.slotCount(), 0);
    for (std::uint64_t flow = 0; flow < 64; ++flow)
        ++homes[dispatcher.homeSlot(flow)];
    for (unsigned s = 0; s < topo.slotCount(); ++s)
        EXPECT_GT(homes[s], 0u) << "no flow hashed home to slot " << s;
}

TEST(ShardDispatcher, PlacePinsAndReleaseUnpins)
{
    TopologySpec spec;
    spec.channels = 2;
    Topology topo(spec);
    ShardDispatcher dispatcher(topo);

    const std::uint64_t flow = 42;
    const unsigned slot = dispatcher.place(flow);
    EXPECT_LT(slot, topo.slotCount());
    ASSERT_TRUE(dispatcher.pinnedSlot(flow).has_value());
    EXPECT_EQ(*dispatcher.pinnedSlot(flow), slot);
    EXPECT_EQ(dispatcher.place(flow), slot); // pinned: same answer
    EXPECT_EQ(dispatcher.stats().placements, 1u);

    dispatcher.releaseFlow(flow);
    EXPECT_FALSE(dispatcher.pinnedSlot(flow).has_value());
}

TEST(ShardDispatcher, DegradedHomeShedsToSibling)
{
    TopologySpec spec;
    spec.channels = 2;
    Topology topo(spec);
    ShardDispatcher dispatcher(topo);

    const std::uint64_t flow = 7;
    const unsigned home = dispatcher.homeSlot(flow);
    dispatcher.setDegraded(home, true);
    const unsigned placed = dispatcher.place(flow);
    EXPECT_NE(placed, home);
    EXPECT_LT(placed, topo.slotCount());
    EXPECT_GE(dispatcher.stats().shed_to_sibling, 1u);

    // A pinned shed flow stays put even after the home recovers — the
    // ordered-fence contract forbids migrating mid-flow.
    dispatcher.setDegraded(home, false);
    EXPECT_EQ(dispatcher.place(flow), placed);
}

TEST(ShardDispatcher, SaturatedHomeShedsFreshFlows)
{
    TopologySpec spec;
    spec.channels = 2;
    Topology topo(spec);
    topo::DispatcherConfig config;
    config.queue.depth = 2;
    config.shed_occupancy = 0.5; // shed at occupancy >= 1
    ShardDispatcher dispatcher(topo, config);

    // Two distinct flows with the same home slot.
    const std::uint64_t first = 0;
    const unsigned home = dispatcher.homeSlot(first);
    std::uint64_t second = 1;
    while (dispatcher.homeSlot(second) != home)
        ++second;

    ASSERT_EQ(dispatcher.place(first), home);
    // Park one descriptor in the home queue (events never run, so it
    // stays unrecorded and occupancy stays 1).
    compcpy::CompCpyParams params;
    params.sbuf = topo.slot(home).driver.alloc(kPageSize);
    params.dbuf = topo.slot(home).driver.alloc(kPageSize);
    params.size = 64;
    params.ulp = smartdimm::UlpKind::kDeflate;
    ASSERT_TRUE(dispatcher
                    .submit(home, compcpy::Descriptor::single(params))
                    .has_value());
    EXPECT_EQ(dispatcher.queue(home).occupancy(), 1u);

    const unsigned placed = dispatcher.place(second);
    EXPECT_NE(placed, home);
    EXPECT_GE(dispatcher.stats().shed_to_sibling, 1u);
}

TEST(ShardDispatcher, EverySlotDegradedFallsBackToCpu)
{
    Topology topo{TopologySpec{}};
    ShardDispatcher dispatcher(topo);
    dispatcher.setDegraded(0, true);

    const std::uint64_t flow = 3;
    EXPECT_EQ(dispatcher.place(flow), ShardDispatcher::kCpuPath);
    EXPECT_FALSE(dispatcher.pinnedSlot(flow).has_value())
        << "the CPU path must not pin: the flow retries DIMMs next op";
    EXPECT_GE(dispatcher.stats().shed_to_cpu, 1u);

    // Once the device recovers the same flow lands on a DIMM again.
    dispatcher.setDegraded(0, false);
    EXPECT_EQ(dispatcher.place(flow), 0u);
}

TEST(ShardDispatcher, ConsecutiveFailuresAutoDegrade)
{
    TopologySpec spec;
    spec.channels = 2;
    Topology topo(spec);
    ShardDispatcher dispatcher(topo);
    const unsigned after = dispatcher.config().degrade_after;

    for (unsigned i = 0; i + 1 < after; ++i)
        dispatcher.noteCompletion(0, compcpy::CompletionStatus::kBailout);
    EXPECT_FALSE(dispatcher.degraded(0));
    dispatcher.noteCompletion(0, compcpy::CompletionStatus::kBailout);
    EXPECT_TRUE(dispatcher.degraded(0));
    EXPECT_EQ(dispatcher.stats().auto_degraded, 1u);

    // One success clears both the streak and the degraded mark.
    dispatcher.noteCompletion(0, compcpy::CompletionStatus::kSuccess);
    EXPECT_FALSE(dispatcher.degraded(0));
}

TEST(ShardDispatcher, PinnedFlowCompletesInSubmissionOrder)
{
    // The reason pinning exists: all of a flow's ops funnel through
    // one FIFO queue, so completions arrive in submission order even
    // with the whole topology available.
    TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;
    Topology topo(spec);
    ShardDispatcher dispatcher(topo);

    const std::uint64_t flow = 11;
    const unsigned slot = dispatcher.place(flow);
    ASSERT_NE(slot, ShardDispatcher::kCpuPath);
    Topology::Slot &dev = topo.slot(slot);

    Rng rng(5);
    std::vector<std::uint8_t> payload(kPageSize);
    std::vector<unsigned> completions;
    for (unsigned i = 0; i < 6; ++i) {
        rng.fill(payload.data(), payload.size());
        compcpy::CompCpyParams params;
        params.sbuf = dev.driver.alloc(kPageSize);
        params.dbuf = dev.driver.alloc(kPageSize);
        params.size = 4000;
        params.ordered = true;
        params.ulp = smartdimm::UlpKind::kDeflate;
        topo.memory().writeSync(params.sbuf, payload.data(),
                                payload.size());
        ASSERT_TRUE(
            dispatcher
                .submit(slot, compcpy::Descriptor::single(params), 0,
                        [&completions, i](
                            const compcpy::CompletionRecord &record) {
                            EXPECT_EQ(
                                record.status,
                                compcpy::CompletionStatus::kSuccess);
                            completions.push_back(i);
                        })
                .has_value());
    }
    topo.events().run();
    EXPECT_EQ(completions,
              (std::vector<unsigned>{0, 1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Striping
// ---------------------------------------------------------------------------

/** Stage @p payload into the chunk sbufs of @p plan. */
void
stageStripe(Topology &topo, const ShardDispatcher::StripePlan &plan,
            const std::vector<std::uint8_t> &payload)
{
    std::size_t off = 0;
    for (const auto &chunk : plan.chunks) {
        // Sync ops are line-granular; chunk sbufs are page-rounded by
        // the driver, so padding the tail of the last line is safe.
        const std::size_t padded =
            divCeil(chunk.params.size, kCacheLineSize) * kCacheLineSize;
        std::vector<std::uint8_t> staged(padded, 0);
        std::memcpy(staged.data(), payload.data() + off,
                    chunk.params.size);
        topo.memory().writeSync(chunk.params.sbuf, staged.data(),
                                padded);
        topo.memory().flushSync(chunk.params.sbuf, padded);
        off += chunk.params.size;
    }
    ASSERT_EQ(off, payload.size());
}

/** Plan + submit + run + read one striped message. */
std::vector<std::uint8_t>
runStripe(Topology &topo, ShardDispatcher &dispatcher,
          const compcpy::CompCpyParams &base,
          const std::vector<std::uint8_t> &payload, int force_slot)
{
    auto plan = dispatcher.planStripe(base, /*flow=*/5, force_slot);
    stageStripe(topo, plan, payload);
    compcpy::CompletionStatus status =
        compcpy::CompletionStatus::kBailout;
    unsigned calls = 0;
    dispatcher.submitStripe(plan,
                            [&](compcpy::CompletionStatus s) {
                                status = s;
                                ++calls;
                            });
    topo.events().run();
    EXPECT_EQ(calls, 1u) << "fan-in must fire exactly once";
    EXPECT_EQ(status, compcpy::CompletionStatus::kSuccess);
    auto bytes = dispatcher.readStripeResult(plan);
    dispatcher.releaseStripe(plan);
    return bytes;
}

TEST(Striping, TlsStripeIsBitExactWithSingleDimm)
{
    const std::size_t total = 64 * 1024; // 4 chunks of 16 KB
    Rng rng(17);
    std::vector<std::uint8_t> payload(total);
    rng.fill(payload.data(), payload.size());

    compcpy::CompCpyParams base;
    base.size = total;
    base.ulp = smartdimm::UlpKind::kTlsEncrypt;
    base.message_id = 100;
    rng.fill(base.key, sizeof(base.key));
    rng.fill(base.iv.data(), base.iv.size());

    TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;

    Topology striped_topo(spec);
    ShardDispatcher striped(striped_topo);
    const auto across =
        runStripe(striped_topo, striped, base, payload, -1);
    EXPECT_GE(striped.stats().stripe_chunks, 4u);

    Topology single_topo(spec);
    ShardDispatcher single(single_topo);
    const auto on_one =
        runStripe(single_topo, single, base, payload, /*force_slot=*/0);

    EXPECT_EQ(across, on_one)
        << "striping must not change a single output bit";
}

TEST(Striping, DeflateStripeIsBitExactWithSingleDimmAndDecodes)
{
    // Compressible payload so the deflate streams are non-trivial.
    const std::size_t total = 12000;
    std::vector<std::uint8_t> payload(total);
    for (std::size_t i = 0; i < total; ++i)
        payload[i] = static_cast<std::uint8_t>("stripe me!"[i % 10]);

    compcpy::CompCpyParams base;
    base.size = total;
    base.ordered = true; // the cross-DIMM fence case
    base.ulp = smartdimm::UlpKind::kDeflate;
    base.message_id = 200;

    TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;

    Topology striped_topo(spec);
    ShardDispatcher striped(striped_topo);
    auto plan = striped.planStripe(base, /*flow=*/5, -1);
    // Deflate chunks clamp to the single-page payload limit.
    for (const auto &chunk : plan.chunks)
        EXPECT_LE(chunk.params.size, smartdimm::kDeflateMaxPayload);
    striped.releaseStripe(plan);

    const auto across =
        runStripe(striped_topo, striped, base, payload, -1);
    Topology single_topo(spec);
    ShardDispatcher single(single_topo);
    const auto on_one =
        runStripe(single_topo, single, base, payload, /*force_slot=*/0);
    EXPECT_EQ(across, on_one);

    // Cross-DIMM fence semantics hold: every ordered chunk stream
    // decodes, and the concatenation reproduces the original message.
    Topology decode_topo(spec);
    ShardDispatcher decoder(decode_topo);
    auto decode_plan = decoder.planStripe(base, /*flow=*/5, -1);
    stageStripe(decode_topo, decode_plan, payload);
    bool fanned_in = false;
    decoder.submitStripe(decode_plan,
                         [&](compcpy::CompletionStatus s) {
                             fanned_in = true;
                             EXPECT_EQ(
                                 s,
                                 compcpy::CompletionStatus::kSuccess);
                         });
    decode_topo.events().run();
    ASSERT_TRUE(fanned_in);
    const auto framed = decoder.readStripeResult(decode_plan);

    std::vector<std::uint8_t> decoded;
    std::size_t region = 0;
    for (const auto &chunk : decode_plan.chunks) {
        const std::size_t dbytes =
            compcpy::CompCpyEngine::destPages(chunk.params) * kPageSize;
        ASSERT_LE(region + dbytes, framed.size());
        const std::uint8_t *frame = framed.data() + region;
        const std::size_t stream_len = frame[0] | (frame[1] << 8);
        const auto part =
            compress::deflateDecompress(frame + 2, stream_len);
        decoded.insert(decoded.end(), part.begin(), part.end());
        region += dbytes;
    }
    decoder.releaseStripe(decode_plan);
    EXPECT_EQ(decoded, payload);
}

// ---------------------------------------------------------------------------
// Per-device stats and scoped faults
// ---------------------------------------------------------------------------

TEST(TopologyStats, MultiDimmComponentsCarryCoordinates)
{
    TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;
    Topology topo(spec);
    ShardDispatcher dispatcher(topo);

    trace::StatsRegistry registry;
    topo.registerStats(registry);
    dispatcher.registerStats(registry);
    std::ostringstream os;
    registry.dumpJson(os);
    const std::string json = os.str();

    for (const char *component :
         {"smartdimm.ch0.d0", "smartdimm.ch1.d1", "compcpy.ch0.d1",
          "compcpy.ch1.d0", "queue.ch0.d0", "queue.ch1.d1", "mc.ch0",
          "mc.ch1", "dispatch"})
        EXPECT_NE(json.find("\"" + std::string(component) + "\""),
                  std::string::npos)
            << "missing component " << component;
}

TEST(TopologyStats, SingleDimmKeepsLegacyComponentNames)
{
    Topology topo{TopologySpec{}};
    trace::StatsRegistry registry;
    topo.registerStats(registry);
    std::ostringstream os;
    registry.dumpJson(os);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"smartdimm\""), std::string::npos);
    EXPECT_NE(json.find("\"compcpy\""), std::string::npos);
    EXPECT_EQ(json.find(".ch0.d0"), std::string::npos)
        << "a 1x1 topology must keep the legacy flat names";
}

TEST(ScopedFaults, DeviceScopedRuleOnlyFiresOnThatDevice)
{
    Rng rng(23);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, sizeof(key));
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;
    Topology topo(spec);

    auto plan =
        fault::FaultPlan::fromSpec("smartdimm[1][0]/free_pages_lie", 1);
    ASSERT_TRUE(plan.has_value());
    topo.setFaultPlan(&*plan);

    // An op on a different device must not trip the scoped rule...
    runTlsOnSlot(topo, topo.slot(0u, 0u), key, iv, plain);
    EXPECT_EQ(plan->injected(fault::Site::kFreePagesLie), 0u);
    EXPECT_EQ(topo.slot(0u, 0u).device.stats().freepages_lies, 0u);

    // ...and an op on the addressed device must.
    runTlsOnSlot(topo, topo.slot(1u, 0u), key, iv, plain);
    EXPECT_GE(plan->injected(fault::Site::kFreePagesLie), 1u);
    EXPECT_GE(topo.slot(1u, 0u).device.stats().freepages_lies, 1u);
    EXPECT_EQ(topo.slot(1u, 1u).device.stats().freepages_lies, 0u);
}

TEST(ScopedFaults, ChannelScopedMemRuleParsesAndScopes)
{
    const auto plan =
        fault::FaultPlan::fromSpec("mem[1]/alert_storm:count=2", 3);
    ASSERT_TRUE(plan.has_value());

    // Malformed scopes must be rejected, not silently unscoped.
    for (const char *bad :
         {"mem[x]/alert_storm", "smartdimm[/free_pages_lie",
          "bogus[0]/alert_storm", "smartdimm[0][1][2]/free_pages_lie"})
        EXPECT_FALSE(fault::FaultPlan::fromSpec(bad, 3).has_value())
            << bad;
}

} // namespace
