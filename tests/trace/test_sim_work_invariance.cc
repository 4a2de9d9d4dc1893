/**
 * @file
 * Simulated work is independent of how the simulator is observed and
 * which kernel tier computes it: a closed loop of TLS-4K CompCpys on
 * a 1x1 rig must execute the same events, reach the same simulated
 * tick and leave the same transformed bytes whether the tracer is
 * off, recording spans or mirroring DDR commands, and under every
 * kernel tier this machine can run. Tracing and the kernels may only
 * change host time.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "kernels/dispatch.h"
#include "topo/topology.h"
#include "trace/trace.h"

namespace {

using namespace sd;

constexpr std::size_t kMessages = 32;
constexpr std::size_t kBatches = 3;
constexpr std::size_t kMessageBytes = 4096;

enum class TraceMode
{
    kOff,
    kSpans,
    kDdr,
};

/** What one run simulated. */
struct Work
{
    std::uint64_t events = 0;
    Tick now = 0;
    std::vector<std::uint8_t> last_dest; ///< transformed bytes
};

/**
 * kBatches closed-loop batches of kMessages staged TLS-4K messages on
 * a 1x1 topology with a 32 MB LLC, then USE of the last destination.
 */
Work
runFixedWork(TraceMode mode)
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 32ull << 20;
    spec.llc.ways = 16;
    spec.llc.cpu_ways = 16;
    topo::Topology rig(spec);
    compcpy::Driver &driver = rig.slot(0).driver;
    compcpy::CompCpyEngine &engine = rig.slot(0).engine;

    Rng rng(7);
    std::vector<compcpy::CompCpyParams> ops;
    std::vector<std::uint8_t> plain(kMessageBytes);
    for (std::size_t i = 0; i < kMessages; ++i) {
        rng.fill(plain.data(), plain.size());
        compcpy::CompCpyParams params;
        params.sbuf = driver.alloc(kMessageBytes);
        params.dbuf = driver.alloc(2 * kPageSize);
        params.size = kMessageBytes;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        rng.fill(params.key, sizeof(params.key));
        rng.fill(params.iv.data(), params.iv.size());
        rig.memory().writeSync(params.sbuf, plain.data(), plain.size());
        ops.push_back(params);
    }

    auto &tr = trace::tracer();
    tr.disable();
    tr.clear();
    if (mode != TraceMode::kOff)
        tr.enable(/*capture_ddr=*/mode == TraceMode::kDdr);

    std::uint64_t message_id = 1;
    for (std::size_t b = 0; b < kBatches; ++b) {
        for (compcpy::CompCpyParams &op : ops) {
            op.message_id = message_id++;
            engine.run(op);
        }
    }
    const compcpy::CompCpyParams &last = ops.back();
    const std::size_t dest_bytes =
        compcpy::CompCpyEngine::destPages(last) * kPageSize;
    engine.useSync(last.dbuf, dest_bytes);

    Work work;
    work.last_dest = engine.readResult(last.dbuf, dest_bytes);
    work.events = rig.events().executed();
    work.now = rig.events().now();

    tr.disable();
    tr.clear();
    return work;
}

void
expectSameWork(const Work &got, const Work &want, const char *label)
{
    EXPECT_EQ(got.events, want.events) << label;
    EXPECT_EQ(got.now, want.now) << label;
    EXPECT_EQ(got.last_dest, want.last_dest) << label;
}

TEST(SimWorkInvariance, SameAcrossTraceModesAndKernelTiers)
{
    const Work reference = runFixedWork(TraceMode::kOff);
    ASSERT_GT(reference.events, 0u);
    ASSERT_FALSE(reference.last_dest.empty());

    expectSameWork(runFixedWork(TraceMode::kSpans), reference, "spans");
    expectSameWork(runFixedWork(TraceMode::kDdr), reference, "ddr");

    const std::vector<kernels::KernelTier> tiers =
        kernels::availableTiers();
    ASSERT_FALSE(tiers.empty());
    for (const kernels::KernelTier tier : tiers) {
        kernels::forceTier(tier);
        const Work work = runFixedWork(TraceMode::kOff);
        kernels::clearForcedTier();
        expectSameWork(work, reference, kernels::tierName(tier));
    }
}

} // namespace
