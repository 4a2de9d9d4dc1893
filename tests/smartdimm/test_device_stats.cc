/**
 * @file
 * The buffer device's whole reportStats() block, pinned on a 1x1
 * topology after a fixed three-message workload: one 16 KB TLS record
 * (four payload pages plus the tag-only trailer page), one Deflate
 * page, and one Deflate page whose ordered copy is broken by an
 * injected fence violation (the DSA poisons that job). Every DSA row
 * is covered, including the busy-cycle rows derived from line counts
 * and the Deflate output-byte and order-fault counters.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "compcpy/compcpy.h"
#include "fault/fault.h"
#include "topo/topology.h"
#include "trace/trace.h"

namespace {

using namespace sd;

topo::TopologySpec
systemSpec()
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    return spec;
}

void
runTls(topo::Topology &sys, Rng &rng, std::size_t len)
{
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), len);
    const Addr sbuf = sys.slot(0).driver.alloc(len);
    const Addr dbuf = sys.slot(0).driver.alloc(len + kPageSize);
    sys.memory().writeSync(sbuf, plain.data(), len);

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 1;
    rng.fill(params.key, 16);
    rng.fill(params.iv.data(), params.iv.size());
    sys.slot(0).queue.run(params);
    sys.slot(0).engine.useSync(dbuf,
                               divCeil(len + 16, kPageSize) * kPageSize);
}

void
runDeflate(topo::Topology &sys)
{
    std::vector<std::uint8_t> staged(kPageSize, 0);
    for (std::size_t i = 0; i < 4000; ++i)
        staged[i] = static_cast<std::uint8_t>("stats page"[i % 10]);
    const Addr sbuf = sys.slot(0).driver.alloc(kPageSize);
    const Addr dbuf = sys.slot(0).driver.alloc(kPageSize);
    sys.memory().writeSync(sbuf, staged.data(), staged.size());

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = 4000;
    params.ordered = true;
    params.ulp = smartdimm::UlpKind::kDeflate;
    sys.slot(0).queue.run(params);
    sys.slot(0).engine.useSync(dbuf, kPageSize);
}

TEST(DeviceStats, ReportStatsBlockPinned)
{
    topo::Topology sys(systemSpec());
    Rng rng(26);
    runTls(sys, rng, 16384);
    runDeflate(sys);

    fault::FaultPlan plan(1);
    plan.add(fault::Site::kOrderedFence, 0, 1);
    sys.setFaultPlan(&plan);
    runDeflate(sys);
    sys.setFaultPlan(nullptr);
    ASSERT_EQ(plan.injected(fault::Site::kOrderedFence), 1u);

    trace::StatsBlock block;
    sys.slot(0).device.reportStats(block);

    // Each busy-cycle row is its line count times kDsaLineLatency (24
    // buffer-device cycles). The poisoned page feeds no Deflate line,
    // so it adds only the order fault; its 63 payload writes and its
    // zeroed 64th line are ignored (S7) and its Scratchpad page stays
    // live. The first Deflate page's zeroed 64th line self-recycles,
    // so that page retires.
    const std::vector<std::pair<std::string, double>> expect = {
        {"plain_reads", 0},
        {"plain_writes", 382},
        {"mmio_reads", 2},
        {"mmio_writes", 13},
        {"sbuf_reads", 382},
        {"dbuf_recycles", 384},
        {"dbuf_write_ignored", 64},
        {"dbuf_scratch_reads", 0},
        {"alert_n", 0},
        {"registrations", 7},
        {"rejected_registrations", 0},
        {"freepages_lies", 0},
        {"doorbell_rings", 3},
        {"completion_acks", 3},
        {"scratchpad.allocs", 7},
        {"scratchpad.self_recycles", 384},
        {"scratchpad.force_recycles", 0},
        {"scratchpad.peak_pages", 5},
        {"scratchpad.live_pages", 1},
        {"dsa.tls_lines", 256},
        {"dsa.tls_messages", 1},
        {"dsa.tls_busy_cycles", 6144},
        {"dsa.deflate_lines", 63},
        {"dsa.deflate_pages", 1},
        {"dsa.deflate_busy_cycles", 1512},
        {"dsa.deflate_output_bytes", 59},
        {"dsa.deflate_order_faults", 1},
    };
    EXPECT_EQ(block.entries(), expect);
}

} // namespace
