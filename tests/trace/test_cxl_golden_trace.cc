/**
 * @file
 * Golden-trace regression for the mixed local+CXL topology: one TLS
 * CompCpy on the *far* slot of a 1-local + 1-CXL machine produces a
 * fully deterministic event sequence — every DRAM-side access defers
 * through the CxlLink's FIFO flit queue, so the link model's timing
 * (round trip, serialization, queueing) is part of the byte-pinned
 * ordering. Any change to link scheduling diffs here while the
 * existing local-only goldens stay byte-identical.
 *
 * Regenerate after an *intentional* change with:
 *   SD_REGEN_GOLDEN=1 ./build/tests/test_trace
 * and commit the updated golden file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "compcpy/compcpy.h"
#include "topo/topology.h"
#include "trace/trace.h"

#ifndef SD_GOLDEN_DIR
#define SD_GOLDEN_DIR "."
#endif

namespace {

using namespace sd;

/** One 4 KB TLS CompCpy + USE on the far slot, DDR mirror on. */
std::string
runCxlGoldenWorkload()
{
    topo::TopologySpec spec;
    spec.channels = 1;
    spec.cxl_channels = 1;
    spec.llc.size_bytes = 4ull << 20;
    topo::Topology topo(spec);
    topo::Topology::Slot &far = topo.slot(1u);

    auto &tr = trace::tracer();
    tr.clear();
    tr.enable(/*capture_ddr=*/true);

    Rng rng(7);
    std::vector<std::uint8_t> plaintext(4096);
    rng.fill(plaintext.data(), plaintext.size());

    const Addr sbuf = far.driver.alloc(4096);
    const Addr dbuf = far.driver.alloc(8192);
    topo.memory().writeSync(sbuf, plaintext.data(), plaintext.size());

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = plaintext.size();
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 1;
    rng.fill(params.key, sizeof(params.key));
    rng.fill(params.iv.data(), params.iv.size());
    far.queue.run(params);
    far.engine.useSync(dbuf, 8192);

    std::ostringstream csv;
    tr.dumpCsv(csv);
    tr.disable();
    tr.clear();
    return csv.str();
}

std::string
cxlGoldenPath()
{
    return std::string(SD_GOLDEN_DIR) + "/compcpy_tls_4k_cxl.golden";
}

TEST(CxlGoldenTrace, MixedTopologyMatchesCheckedInTrace)
{
    const std::string got = runCxlGoldenWorkload();

    if (std::getenv("SD_REGEN_GOLDEN")) {
        std::ofstream out(cxlGoldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << cxlGoldenPath();
        out << got;
        GTEST_SKIP() << "regenerated " << cxlGoldenPath();
    }

    std::ifstream in(cxlGoldenPath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << cxlGoldenPath()
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
}

TEST(CxlGoldenTrace, RunIsDeterministic)
{
    EXPECT_EQ(runCxlGoldenWorkload(), runCxlGoldenWorkload());
}

TEST(CxlGoldenTrace, FarTraceDiffersFromLocalOnlyByTiming)
{
    // The far run must be a *timing* variation of the same workload on
    // a local slot: the link stretches the schedule (and lets pipeline
    // stages interleave differently) but never changes which stages
    // execute. The trace therefore differs while the stage multiset on
    // the offload span is identical.
    const std::string far = runCxlGoldenWorkload();

    topo::TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    topo::Topology topo(spec);
    auto &tr = trace::tracer();
    tr.clear();
    tr.enable(/*capture_ddr=*/true);
    Rng rng(7);
    std::vector<std::uint8_t> plaintext(4096);
    rng.fill(plaintext.data(), plaintext.size());
    const Addr sbuf = topo.slot(0u).driver.alloc(4096);
    const Addr dbuf = topo.slot(0u).driver.alloc(8192);
    topo.memory().writeSync(sbuf, plaintext.data(), plaintext.size());
    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = plaintext.size();
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 1;
    rng.fill(params.key, sizeof(params.key));
    rng.fill(params.iv.data(), params.iv.size());
    topo.slot(0u).queue.run(params);
    topo.slot(0u).engine.useSync(dbuf, 8192);
    std::ostringstream csv;
    tr.dumpCsv(csv);
    tr.disable();
    tr.clear();
    const std::string local = csv.str();

    EXPECT_NE(far, local) << "the link must be visible in the timing";

    const auto stagesOf = [](const std::string &trace) {
        std::vector<std::string> stages;
        std::istringstream rows(trace);
        std::string row;
        std::getline(rows, row); // header
        while (std::getline(rows, row)) {
            const auto c1 = row.find(',');
            const auto c2 = row.find(',', c1 + 1);
            const auto c3 = row.find(',', c2 + 1);
            const std::string span = row.substr(c1 + 1, c2 - c1 - 1);
            const std::string stage = row.substr(c2 + 1, c3 - c2 - 1);
            // DDR command rows (ddr_rd/wr/pre/act) are a function of
            // row-buffer state, which the link's timing shifts.
            if (span == "1" && stage.rfind("ddr_", 0) != 0)
                stages.push_back(stage);
        }
        std::sort(stages.begin(), stages.end());
        return stages;
    };
    EXPECT_EQ(stagesOf(far), stagesOf(local))
        << "the far tier changes timing, never the pipeline";
}

} // namespace
