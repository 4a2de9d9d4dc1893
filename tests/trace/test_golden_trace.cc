/**
 * @file
 * Golden-trace regression: one TLS CompCpy on a fixed single-channel
 * rig produces a fully deterministic event sequence (the event queue
 * breaks ties by sequence number and all randomness is seeded), so
 * the tracer's `tick,span,stage,address` CSV must match a checked-in
 * golden file byte for byte. Any change to pipeline scheduling, DRAM
 * timing or stage attribution shows up as a diff.
 *
 * Regenerate after an *intentional* change with:
 *   SD_REGEN_GOLDEN=1 ./build/tests/test_trace
 * and commit the updated golden file.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "mem/dram_command.h"
#include "fault/fault.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "topo/topology.h"
#include "trace/trace.h"

#ifndef SD_GOLDEN_DIR
#define SD_GOLDEN_DIR "."
#endif

namespace {

using namespace sd;

/** Counts CAS commands the channel actually issued. */
class CasCounter : public mem::CommandObserver
{
  public:
    void
    observe(const mem::DdrCommand &cmd) override
    {
        if (cmd.type == mem::DdrCommandType::kReadCas)
            reads.push_back({cmd.issue, cmd.addr});
        else if (cmd.type == mem::DdrCommandType::kWriteCas)
            writes.push_back({cmd.issue, cmd.addr});
    }

    std::vector<std::pair<Tick, Addr>> reads;
    std::vector<std::pair<Tick, Addr>> writes;
};

/** The fixed workload: one 4 KB TLS CompCpy + USE, DDR mirror on. */
std::string
runGoldenWorkload(CasCounter *observer,
                  fault::FaultPlan *fault_plan = nullptr)
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    spec.driver_bytes = 64ULL << 20;
    topo::Topology topo(spec);
    cache::MemorySystem &memory = topo.memory();
    if (observer)
        memory.controller(0).setObserver(observer);

    compcpy::Driver &driver = topo.slot(0).driver;
    compcpy::CompCpyEngine &engine = topo.slot(0).engine;

    if (fault_plan)
        topo.setFaultPlan(fault_plan);

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

std::string
goldenPath()
{
    return std::string(SD_GOLDEN_DIR) + "/compcpy_tls_4k.golden";
}

std::string
faultGoldenPath()
{
    return std::string(SD_GOLDEN_DIR) + "/compcpy_tls_4k_fault.golden";
}

/**
 * The pinned fault plan: fully scripted (p = 1) rules, so the trace is
 * a pure function of the rig — two spurious ALERT_N retries partway
 * into the copy plus one freePages lie driving a Force-Recycle pass.
 */
fault::FaultPlan
makeGoldenFaultPlan()
{
    fault::FaultPlan plan(/*seed=*/17);
    plan.add(fault::Site::kAlertStorm, /*skip=*/4, /*count=*/2);
    plan.add(fault::Site::kFreePagesLie, /*skip=*/0, /*count=*/1);
    return plan;
}

TEST(GoldenTrace, MatchesCheckedInTrace)
{
    const std::string got = runGoldenWorkload(nullptr);

    if (std::getenv("SD_REGEN_GOLDEN")) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << got;
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                    << " — run with SD_REGEN_GOLDEN=1 to create it";
    std::stringstream want;
    want << in.rdbuf();

    // Compare line-by-line so a drift reports its first divergence
    // instead of a megabyte diff.
    std::istringstream got_s(got), want_s(want.str());
    std::string got_line, want_line;
    std::size_t line = 0;
    while (std::getline(want_s, want_line)) {
        ++line;
        ASSERT_TRUE(std::getline(got_s, got_line))
            << "trace truncated at golden line " << line;
        ASSERT_EQ(got_line, want_line) << "first divergence at line "
                                       << line;
    }
    EXPECT_FALSE(std::getline(got_s, got_line))
        << "trace has extra rows past golden line " << line;
}

TEST(GoldenTrace, FaultInjectedTraceMatchesCheckedInTrace)
{
    // Same workload under the pinned fault plan: the recovery path
    // (retries, Force-Recycle re-reads) is part of the byte-pinned
    // event ordering, so a change to retry scheduling or fault
    // attribution diffs here even when the fault-free golden is quiet.
    fault::FaultPlan plan = makeGoldenFaultPlan();
    const std::string got = runGoldenWorkload(nullptr, &plan);

    if (std::getenv("SD_REGEN_GOLDEN")) {
        std::ofstream out(faultGoldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << faultGoldenPath();
        out << got;
        GTEST_SKIP() << "regenerated " << faultGoldenPath();
    }

    std::ifstream in(faultGoldenPath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << faultGoldenPath()
                    << " — run with SD_REGEN_GOLDEN=1 to create it";
    std::stringstream want;
    want << in.rdbuf();

    std::istringstream got_s(got), want_s(want.str());
    std::string got_line, want_line;
    std::size_t line = 0;
    while (std::getline(want_s, want_line)) {
        ++line;
        ASSERT_TRUE(std::getline(got_s, got_line))
            << "trace truncated at golden line " << line;
        ASSERT_EQ(got_line, want_line) << "first divergence at line "
                                       << line;
    }
    EXPECT_FALSE(std::getline(got_s, got_line))
        << "trace has extra rows past golden line " << line;
    // The plan fired in full — otherwise the golden pins nothing.
    EXPECT_EQ(plan.injected(fault::Site::kAlertStorm), 2u);
    EXPECT_EQ(plan.injected(fault::Site::kFreePagesLie), 1u);
}

TEST(GoldenTrace, FaultInjectedRunIsDeterministic)
{
    auto run = [] {
        fault::FaultPlan plan = makeGoldenFaultPlan();
        return runGoldenWorkload(nullptr, &plan);
    };
    const std::string first = run();
    EXPECT_EQ(first, run());

    // Faults leave visible footprints: the trace must contain `fault`
    // rows, and must differ from the fault-free trace.
    EXPECT_NE(first.find(",fault,"), std::string::npos);
    EXPECT_NE(first, runGoldenWorkload(nullptr));
}

TEST(GoldenTrace, RunIsDeterministic)
{
    // The property the golden file relies on: two fresh rigs produce
    // identical traces.
    EXPECT_EQ(runGoldenWorkload(nullptr), runGoldenWorkload(nullptr));
}

TEST(GoldenTrace, DdrMirrorAgreesWithCommandObserver)
{
    // Differential check of the mirror itself (the same stream the
    // fig09 bench writes to fig09_trace.csv): every rd/wrCAS the
    // controller issued must appear as a ddr_rd/ddr_wr event with the
    // same issue tick and address, in the same order.
    CasCounter counter;
    const std::string csv = runGoldenWorkload(&counter);

    std::vector<std::pair<Tick, Addr>> traced_reads, traced_writes;
    std::istringstream rows(csv);
    std::string row;
    std::getline(rows, row); // header
    while (std::getline(rows, row)) {
        // tick,span,stage,address
        const auto c1 = row.find(',');
        const auto c2 = row.find(',', c1 + 1);
        const auto c3 = row.find(',', c2 + 1);
        const std::string stage = row.substr(c2 + 1, c3 - c2 - 1);
        if (stage != "ddr_rd" && stage != "ddr_wr")
            continue;
        const Tick tick = std::stoull(row.substr(0, c1));
        const Addr addr = std::stoull(row.substr(c3 + 1));
        (stage == "ddr_rd" ? traced_reads : traced_writes)
            .emplace_back(tick, addr);
    }

    EXPECT_GT(counter.reads.size(), 0u);
    EXPECT_GT(counter.writes.size(), 0u);
    EXPECT_EQ(traced_reads, counter.reads);
    EXPECT_EQ(traced_writes, counter.writes);
}

TEST(GoldenTrace, EveryPipelineStagePresentWithForwardProgress)
{
    const std::string csv = runGoldenWorkload(nullptr);
    // Structural invariants that hold for *any* correct trace, golden
    // or regenerated: all seven pipeline stages appear on span 1 with
    // strictly positive cycle stamps. (Capture order is *recording*
    // order — DDR commands are stamped with their future issue tick —
    // so global tick monotonicity is not an invariant.)
    bool seen[7] = {};
    static const char *kStages[7] = {"flush",     "register", "copy",
                                     "transform", "stage",    "recycle",
                                     "use"};
    std::istringstream rows(csv);
    std::string row;
    std::getline(rows, row);
    while (std::getline(rows, row)) {
        const auto c1 = row.find(',');
        const auto c2 = row.find(',', c1 + 1);
        const auto c3 = row.find(',', c2 + 1);
        const Tick tick = std::stoull(row.substr(0, c1));
        const std::string span = row.substr(c1 + 1, c2 - c1 - 1);
        const std::string stage = row.substr(c2 + 1, c3 - c2 - 1);
        if (span != "1")
            continue;
        for (int i = 0; i < 7; ++i)
            if (stage == kStages[i]) {
                EXPECT_GT(tick, 0u) << stage << " at tick 0";
                seen[i] = true;
            }
    }
    for (int i = 0; i < 7; ++i)
        EXPECT_TRUE(seen[i]) << "stage " << kStages[i]
                             << " missing from span 1";
}

} // namespace
