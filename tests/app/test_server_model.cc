/**
 * @file
 * Server system model: contention probe behaviour (Fig. 3's
 * mechanism), placement orderings at the paper's operating points
 * (Fig. 11/12), and the co-run coupling (Table I).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "app/antagonist.h"
#include "app/contention_model.h"
#include "app/open_loop.h"
#include "app/server_model.h"

namespace {

using namespace sd;
using app::ContentionWorkload;
using app::evaluateServer;
using app::McfLikeAntagonist;
using app::measureContention;
using app::ServerConfig;

ServerConfig
paperPoint(offload::PlacementKind placement, offload::Ulp ulp,
           std::size_t msg)
{
    ServerConfig cfg;
    cfg.placement = placement;
    cfg.ulp = ulp;
    cfg.message_bytes = msg;
    return cfg;
}

TEST(Contention, LeakGrowsWithConnections)
{
    ContentionWorkload w;
    w.message_bytes = 4096;
    w.connections = 128;
    const double low = measureContention(w).leak_fraction;
    w.connections = 2048;
    const double high = measureContention(w).leak_fraction;
    EXPECT_LT(low, 0.1);
    EXPECT_GT(high, 0.35);
}

TEST(Contention, AntagonistRaisesLeak)
{
    ContentionWorkload w;
    w.connections = 512;
    const double solo = measureContention(w).leak_fraction;
    w.antagonist_mb = 1800;
    w.antagonist_instances = 10;
    const double corun = measureContention(w).leak_fraction;
    EXPECT_GT(corun, solo);
}

/** The IEEE-754 bit pattern of @p value. */
std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST(Contention, Deterministic)
{
    ContentionWorkload w;
    w.connections = 1024;
    const auto first = measureContention(w);
    const auto second = measureContention(w);
    EXPECT_EQ(bitsOf(first.leak_fraction), bitsOf(second.leak_fraction));
    EXPECT_EQ(bitsOf(first.miss_rate), bitsOf(second.miss_rate));
}

TEST(Contention, PinnedOutputBits)
{
    // evaluateServer's probe settings for the four distinct
    // server_sweep workloads. Any change to the LLC model's hit/evict
    // decisions moves these bits, and with them every Fig. 11/12 and
    // Table I number.
    struct Pin
    {
        std::size_t message_bytes;
        std::size_t antagonist_mb;
        unsigned antagonist_instances;
        std::uint64_t leak_fraction;
        std::uint64_t miss_rate;
    };
    const Pin pins[] = {
        {4096, 0, 0, 0x3fdea90000000000, 0x3feddb45b6064e6b},
        {16384, 0, 0, 0x3fe2800000000000, 0x3feccac8cedd0a23},
        {65536, 0, 0, 0x3feca00000000000, 0x3feee04e6d430970},
        {4096, 1800, 10, 0x3fe0000000000000, 0x3feee0e086c77e38},
    };
    for (const Pin &pin : pins) {
        ContentionWorkload w;
        w.connections = 1024;
        w.per_connection_kb = 64;
        w.llc_mb = 27;
        w.message_bytes = pin.message_bytes;
        w.antagonist_mb = pin.antagonist_mb;
        w.antagonist_instances = pin.antagonist_instances;
        const auto got = measureContention(w, 7);
        EXPECT_EQ(bitsOf(got.leak_fraction), pin.leak_fraction)
            << pin.message_bytes << " B, antagonist " << pin.antagonist_mb;
        EXPECT_EQ(bitsOf(got.miss_rate), pin.miss_rate)
            << pin.message_bytes << " B, antagonist " << pin.antagonist_mb;
    }
}

TEST(Contention, ShardCountInvariant)
{
    // Each shard replays the whole stream into a private cache and
    // issues only its own sets' accesses, so any split must give the
    // serial probe's bits. Shard counts 3, 5 and 7 leave ranges that
    // do not divide the set count evenly.
    struct Case
    {
        std::size_t llc_mb;
        std::size_t message_bytes;
        std::size_t antagonist_mb;
        unsigned antagonist_instances;
        std::uint64_t seed;
    };
    const Case cases[] = {
        {27, 4096, 0, 0, 7},
        {27, 16384, 0, 0, 7},
        {27, 65536, 0, 0, 7},
        {27, 4096, 1800, 10, 7},
        {0, 4096, 0, 0, 11}, // the 64 KB (64-set) floor
    };
    for (const Case &k : cases) {
        ContentionWorkload w;
        w.connections = 1024;
        w.per_connection_kb = 64;
        w.llc_mb = k.llc_mb;
        w.message_bytes = k.message_bytes;
        w.antagonist_mb = k.antagonist_mb;
        w.antagonist_instances = k.antagonist_instances;
        const auto serial =
            app::detail::measureContentionShards(w, k.seed, 1);
        for (const unsigned shards : {2u, 3u, 5u, 7u}) {
            const auto got =
                app::detail::measureContentionShards(w, k.seed, shards);
            EXPECT_EQ(bitsOf(got.leak_fraction),
                      bitsOf(serial.leak_fraction))
                << k.llc_mb << " MB, " << k.message_bytes << " B, "
                << shards << " shards";
            EXPECT_EQ(bitsOf(got.miss_rate), bitsOf(serial.miss_rate))
                << k.llc_mb << " MB, " << k.message_bytes << " B, "
                << shards << " shards";
        }
    }
}

TEST(ServerModel, Fig11OrderingAt4K)
{
    const auto cpu = evaluateServer(paperPoint(
        offload::PlacementKind::kCpu, offload::Ulp::kTlsEncrypt, 4096));
    const auto nic = evaluateServer(
        paperPoint(offload::PlacementKind::kSmartNic,
                   offload::Ulp::kTlsEncrypt, 4096));
    const auto qat = evaluateServer(
        paperPoint(offload::PlacementKind::kQuickAssist,
                   offload::Ulp::kTlsEncrypt, 4096));
    const auto dimm = evaluateServer(
        paperPoint(offload::PlacementKind::kSmartDimm,
                   offload::Ulp::kTlsEncrypt, 4096));

    // Paper: SmartDIMM +21% over CPU; SmartNIC and QAT no gain.
    EXPECT_GT(dimm.rps, cpu.rps * 1.10);
    EXPECT_LT(dimm.rps, cpu.rps * 1.35);
    EXPECT_LE(nic.rps, cpu.rps * 1.05);
    EXPECT_LT(qat.rps, cpu.rps * 0.7);
    // Per-request memory traffic much lower for SmartDIMM.
    EXPECT_LT(dimm.dram_bytes_per_request,
              cpu.dram_bytes_per_request * 0.8);
}

TEST(ServerModel, Fig11SmartDimmGainGrowsWithMessageSize)
{
    const auto r4 = [&](offload::PlacementKind k) {
        return evaluateServer(
            paperPoint(k, offload::Ulp::kTlsEncrypt, 4096));
    };
    const auto r16 = [&](offload::PlacementKind k) {
        return evaluateServer(
            paperPoint(k, offload::Ulp::kTlsEncrypt, 16384));
    };
    const double gain4 = r4(offload::PlacementKind::kSmartDimm).rps /
                         r4(offload::PlacementKind::kCpu).rps;
    const double gain16 = r16(offload::PlacementKind::kSmartDimm).rps /
                          r16(offload::PlacementKind::kCpu).rps;
    EXPECT_GT(gain16, gain4); // paper: 21.0% -> 35.8%
}

TEST(ServerModel, Fig12CompressionFactors)
{
    const auto cpu = evaluateServer(paperPoint(
        offload::PlacementKind::kCpu, offload::Ulp::kDeflate, 4096));
    const auto dimm = evaluateServer(paperPoint(
        offload::PlacementKind::kSmartDimm, offload::Ulp::kDeflate,
        4096));
    const auto qat = evaluateServer(
        paperPoint(offload::PlacementKind::kQuickAssist,
                   offload::Ulp::kDeflate, 4096));
    // Paper: 5.09x at 4 KB; QAT no improvement.
    EXPECT_GT(dimm.rps, cpu.rps * 3.5);
    EXPECT_LT(dimm.rps, cpu.rps * 7.0);
    EXPECT_LT(qat.rps, cpu.rps * 1.2);

    const auto cpu16 = evaluateServer(paperPoint(
        offload::PlacementKind::kCpu, offload::Ulp::kDeflate, 16384));
    const auto dimm16 = evaluateServer(paperPoint(
        offload::PlacementKind::kSmartDimm, offload::Ulp::kDeflate,
        16384));
    EXPECT_GT(dimm16.rps / cpu16.rps, dimm.rps / cpu.rps)
        << "paper: 5.09x at 4 KB grows to 10.28x at 16 KB";
}

TEST(ServerModel, SmartNicUnsupportedForDeflate)
{
    const auto nic = evaluateServer(paperPoint(
        offload::PlacementKind::kSmartNic, offload::Ulp::kDeflate,
        4096));
    EXPECT_FALSE(nic.supported);
}

TEST(ServerModel, Fig3HttpsBandwidthRatioRises)
{
    ServerConfig http;
    http.ulp = offload::Ulp::kNone;
    ServerConfig https;
    https.ulp = offload::Ulp::kTlsEncrypt;

    http.connections = https.connections = 128;
    const double low = evaluateServer(https).mem_bandwidth_gbps /
                       evaluateServer(http).mem_bandwidth_gbps;
    http.connections = https.connections = 2048;
    const double high = evaluateServer(https).mem_bandwidth_gbps /
                        evaluateServer(http).mem_bandwidth_gbps;
    EXPECT_GT(high, low);
    EXPECT_GT(high, 1.8); // paper: up to ~2.5x
    EXPECT_LT(high, 3.2);
}

TEST(ServerModel, TableIOrderings)
{
    auto corun = [](offload::PlacementKind kind) {
        ServerConfig cfg = paperPoint(kind, offload::Ulp::kTlsEncrypt,
                                      4096);
        cfg.antagonist_mb = 1800;
        cfg.antagonist_instances = 10;
        return evaluateServer(cfg);
    };
    auto solo = [](offload::PlacementKind kind) {
        return evaluateServer(
            paperPoint(kind, offload::Ulp::kTlsEncrypt, 4096));
    };

    const double cpu_slow =
        1.0 - corun(offload::PlacementKind::kCpu).rps /
                  solo(offload::PlacementKind::kCpu).rps;
    const double nic_slow =
        1.0 - corun(offload::PlacementKind::kSmartNic).rps /
                  solo(offload::PlacementKind::kSmartNic).rps;
    const double qat_slow =
        1.0 - corun(offload::PlacementKind::kQuickAssist).rps /
                  solo(offload::PlacementKind::kQuickAssist).rps;
    const double dimm_slow =
        1.0 - corun(offload::PlacementKind::kSmartDimm).rps /
                  solo(offload::PlacementKind::kSmartDimm).rps;

    // Paper ordering: QAT worst, CPU next, SmartDIMM ~ SmartNIC best.
    EXPECT_GT(qat_slow, cpu_slow);
    EXPECT_GT(cpu_slow, dimm_slow);
    EXPECT_GE(dimm_slow, nic_slow * 0.5);

    // mcf-side: QAT worst, SmartNIC best, SmartDIMM close to CPU's
    // range but with much higher absolute RPS.
    const double cpu_mcf =
        corun(offload::PlacementKind::kCpu).antagonist_slowdown;
    const double qat_mcf =
        corun(offload::PlacementKind::kQuickAssist).antagonist_slowdown;
    const double nic_mcf =
        corun(offload::PlacementKind::kSmartNic).antagonist_slowdown;
    const double dimm_mcf =
        corun(offload::PlacementKind::kSmartDimm).antagonist_slowdown;
    EXPECT_GT(qat_mcf, cpu_mcf);
    EXPECT_LT(nic_mcf, cpu_mcf);
    EXPECT_LT(dimm_mcf, cpu_mcf);
    EXPECT_GT(corun(offload::PlacementKind::kSmartDimm).rps,
              corun(offload::PlacementKind::kSmartNic).rps);
}

app::OpenLoopConfig
openLoopPoint(unsigned channels, unsigned dimms, double rate)
{
    app::OpenLoopConfig cfg;
    cfg.topology.channels = channels;
    cfg.topology.dimms_per_channel = dimms;
    cfg.arrival_rate = rate;
    cfg.requests = 256;
    cfg.flows = 24;
    cfg.seed = 42;
    return cfg;
}

TEST(OpenLoop, CompletesEveryArrivalOnOneByOne)
{
    const app::OpenLoopResult r =
        app::runOpenLoopServer(openLoopPoint(1, 1, 200e3));
    EXPECT_EQ(r.completed, 256u);
    EXPECT_EQ(r.dimm_ops + r.cpu_ops, r.completed);
    EXPECT_GT(r.achieved_ops_per_sec, 0.0);
    EXPECT_GT(r.p99_us, 0.0);
    EXPECT_GE(r.p99_us, r.p50_us);
    EXPECT_GE(r.max_us, r.p99_us);
}

TEST(OpenLoop, DeterministicInSeed)
{
    const app::OpenLoopConfig cfg = openLoopPoint(2, 2, 800e3);
    const app::OpenLoopResult a = app::runOpenLoopServer(cfg);
    const app::OpenLoopResult b = app::runOpenLoopServer(cfg);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dimm_ops, b.dimm_ops);
    EXPECT_EQ(a.cpu_ops, b.cpu_ops);
    EXPECT_EQ(a.shed_to_sibling, b.shed_to_sibling);
    EXPECT_EQ(bitsOf(a.achieved_ops_per_sec),
              bitsOf(b.achieved_ops_per_sec));
    EXPECT_EQ(bitsOf(a.p99_us), bitsOf(b.p99_us));
}

TEST(OpenLoop, TieredTopologyCompletesEveryArrival)
{
    // With a far tier the dispatcher migrates pinned flows between
    // tiers (and leaves them unpinned when both are saturated) while
    // their ops are in flight; every op must still complete and free
    // its buffers on the slot that allocated them.
    for (const double rate : {800e3, 3e6}) {
        app::OpenLoopConfig cfg = openLoopPoint(1, 1, rate);
        cfg.topology.cxl_channels = 1;
        const app::OpenLoopResult r = app::runOpenLoopServer(cfg);
        EXPECT_EQ(r.completed, 256u) << rate;
        EXPECT_EQ(r.dimm_ops + r.cpu_ops, r.completed) << rate;
    }
}

TEST(OpenLoop, ScaleOutAbsorbsOverload)
{
    // Offer far more load than a single DIMM can absorb: the 4x2
    // topology must complete them faster (open-loop makespan shrinks)
    // and with a lighter tail than 1x1.
    const double rate = 3e6;
    const app::OpenLoopResult one =
        app::runOpenLoopServer(openLoopPoint(1, 1, rate));
    const app::OpenLoopResult eight =
        app::runOpenLoopServer(openLoopPoint(4, 2, rate));
    EXPECT_EQ(one.completed, eight.completed);
    EXPECT_GT(eight.achieved_ops_per_sec, one.achieved_ops_per_sec);
    EXPECT_LE(eight.p99_us, one.p99_us);
}

TEST(Antagonist, PointerChaseVisitsEveryNode)
{
    cache::CacheConfig cfg;
    cfg.size_bytes = 64 * 1024;
    cache::Cache llc(cfg);
    McfLikeAntagonist antagonist(256 * 1024, 5);
    antagonist.walk(llc, 4096); // 4096 = node count of 256 KB set
    EXPECT_EQ(antagonist.visited(), 4096u);
    // A Sattolo cycle over a 4x-LLC working set misses heavily.
    EXPECT_GT(llc.stats().missRate(), 0.5);
}

} // namespace
