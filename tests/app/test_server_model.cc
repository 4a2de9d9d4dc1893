/**
 * @file
 * Server system model: contention probe behaviour (Fig. 3's
 * mechanism), placement orderings at the paper's operating points
 * (Fig. 11/12), and the co-run coupling (Table I).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>

#include "app/antagonist.h"
#include "app/contention_model.h"
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

/** A probe workload and its output bits, printed from the line-by-line
 *  replay the set-range enumeration replaced. */
struct ProbePin
{
    unsigned connections;
    std::size_t llc_mb;
    std::size_t message_bytes;
    double per_connection_kb;
    std::size_t antagonist_mb;
    unsigned antagonist_instances;
    std::uint64_t seed;
    std::uint64_t leak_fraction;
    std::uint64_t miss_rate;

    ContentionWorkload workload() const
    {
        ContentionWorkload w;
        w.connections = connections;
        w.llc_mb = llc_mb;
        w.message_bytes = message_bytes;
        w.per_connection_kb = per_connection_kb;
        w.antagonist_mb = antagonist_mb;
        w.antagonist_instances = antagonist_instances;
        return w;
    }
};

std::ostream &
operator<<(std::ostream &os, const ProbePin &pin)
{
    return os << pin.connections << " conns, " << pin.llc_mb << " MB, "
              << pin.message_bytes << " B, " << pin.per_connection_kb
              << " KB/conn, antagonist " << pin.antagonist_mb << " MB x"
              << pin.antagonist_instances << ", seed " << pin.seed;
}

// The first four are evaluateServer's probe settings for the distinct
// server_sweep workloads: any change to the LLC model's hit/evict
// decisions moves their bits, and with them every Fig. 11/12 and
// Table I number. The rest stress the set-range arithmetic: walks
// that lap the 64 KB (64-set) floor cache 4 and 16 times, message and
// state sizes that are not whole lines on a 768-set cache (not a power
// of two) and on the floor, and co-runs on the floor.
const ProbePin kProbePins[] = {
    {1024, 27, 4096, 64, 0, 0, 7, 0x3fdea90000000000, 0x3feddb45b6064e6b},
    {1024, 27, 16384, 64, 0, 0, 7, 0x3fe2800000000000, 0x3feccac8cedd0a23},
    {1024, 27, 65536, 64, 0, 0, 7, 0x3feca00000000000, 0x3feee04e6d430970},
    {1024, 27, 4096, 64, 1800, 10, 7, 0x3fe0000000000000,
     0x3feee0e086c77e38},
    {1024, 0, 4096, 64, 0, 0, 11, 0x3fef800000000000, 0x3feff258fde64028},
    {8, 0, 16384, 4, 0, 0, 7, 0x3fa8800000000000, 0x3fe175bcea87f3d2},
    {4, 0, 65536, 4, 0, 0, 7, 0x3fe8000000000000, 0x3fecdd4f7a82daad},
    {2048, 3, 1000, 0.7, 0, 0, 7, 0x3fe2518000000000, 0x3fead0c414720d2e},
    {256, 0, 1000, 0.7, 0, 0, 7, 0x3fe7700000000000, 0x3fec97f0d5e107e7},
    {16, 0, 4096, 4, 1800, 10, 7, 0x3fe0000000000000, 0x3fee6adee3ef48d2},
    {8, 0, 1000, 0.7, 1800, 10, 7, 0x3fd9000000000000, 0x3fef430b70ceab7d},
};

TEST(Contention, PinnedOutputBits)
{
    for (const ProbePin &pin : kProbePins) {
        const auto got = measureContention(pin.workload(), pin.seed);
        EXPECT_EQ(bitsOf(got.leak_fraction), pin.leak_fraction) << pin;
        EXPECT_EQ(bitsOf(got.miss_rate), pin.miss_rate) << pin;
    }
}

TEST(Contention, ShardCountInvariant)
{
    // Each shard enumerates only the lines of each walk that map to its
    // sets, as runs, into a private cache, so any split must give the
    // serial probe's bits. Shard counts 3, 5 and 7 leave ranges that
    // do not divide the set count evenly; 64 gives each set of the
    // floor cache its own shard.
    for (const ProbePin &pin : kProbePins) {
        const ContentionWorkload w = pin.workload();
        const auto serial =
            app::detail::measureContentionShards(w, pin.seed, 1);
        for (const unsigned shards : {2u, 3u, 5u, 7u, 64u}) {
            const auto got =
                app::detail::measureContentionShards(w, pin.seed, shards);
            EXPECT_EQ(bitsOf(got.leak_fraction),
                      bitsOf(serial.leak_fraction))
                << pin << ", " << shards << " shards";
            EXPECT_EQ(bitsOf(got.miss_rate), bitsOf(serial.miss_rate))
                << pin << ", " << shards << " shards";
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
