/**
 * @file
 * CXL completion-contract soak (the tests/fault conservation harness
 * extended to the far tier's two sites). N seeds, each deriving a
 * randomized plan over kCxlLinkStall and kCxlTimeout, drive a batch
 * of TLS offloads through a mixed local+CXL topology's far slot.
 * Invariants per seed:
 *
 *  (a) exactly-once: every submitted descriptor's completion callback
 *      fires exactly once, timeout or not;
 *  (b) conservation: withheld_timeouts == injected(kCxlTimeout), the
 *      link's injected_stalls == injected(kCxlLinkStall), every
 *      timeout is recovered (never bailed), and every non-timeout
 *      completion arrived via the withheld read;
 *  (c) data integrity: a stall delays but never corrupts — every
 *      non-degraded record's output matches the fault-free reference.
 *
 * Seed count scales via SD_FAULT_SOAK_SEEDS (CI runs 16).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "compcpy/queue.h"
#include "fault/fault.h"
#include "topo/dispatcher.h"
#include "topo/topology.h"

namespace {

using namespace sd;
using compcpy::CompletionRecord;
using compcpy::CompletionStatus;
using compcpy::Descriptor;
using fault::FaultPlan;
using fault::Site;

std::uint64_t
envU64(const char *name, std::uint64_t dflt)
{
    const char *value = std::getenv(name);
    return value ? std::strtoull(value, nullptr, 0) : dflt;
}

constexpr std::size_t kOffloads = 24;

/** Everything one soak run produces. */
struct SoakResult
{
    std::map<std::uint64_t, unsigned> callbacks; ///< per-id fire count
    std::map<std::uint64_t, CompletionStatus> statuses;
    std::vector<std::vector<std::uint8_t>> outputs; ///< per offload
    compcpy::WorkQueueStats queue;
    mem::CxlLink::Stats link;
};

/** kOffloads TLS-4K records through the far slot's withheld queue. */
SoakResult
runWorkload(FaultPlan *plan)
{
    topo::TopologySpec spec;
    spec.channels = 1;
    spec.cxl_channels = 1;
    topo::Topology topo(spec);
    topo::ShardDispatcher dispatcher(topo);
    if (plan)
        topo.setFaultPlan(plan);

    const unsigned far_slot = 1;
    topo::Topology::Slot &dev = topo.slot(far_slot);

    Rng rng(99); // workload data fixed across all soaks
    std::uint8_t key[16];
    rng.fill(key, sizeof(key));
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());

    SoakResult result;
    result.outputs.resize(kOffloads);
    std::vector<Addr> dbufs(kOffloads);

    for (std::size_t i = 0; i < kOffloads; ++i) {
        compcpy::CompCpyParams params;
        params.size = plain.size();
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = 1 + i;
        std::memcpy(params.key, key, sizeof(key));
        params.iv = iv;
        params.iv[0] ^= static_cast<std::uint8_t>(i);
        params.sbuf = dev.driver.alloc(plain.size());
        params.dbuf = dev.driver.alloc(2 * kPageSize);
        dbufs[i] = params.dbuf;
        topo.memory().writeSync(params.sbuf, plain.data(),
                                plain.size());

        const auto id = dispatcher.submit(
            far_slot, Descriptor::single(params), 0,
            [&result](const CompletionRecord &record) {
                ++result.callbacks[record.id];
                result.statuses[record.id] = record.status;
            });
        EXPECT_TRUE(id.has_value()) << "offload " << i;
        // Serialize: keeps occupancy below depth regardless of the
        // injected stalls, and drain() runs timeout recovery per op.
        topo.slot(far_slot).queue.drain();
        dev.engine.useSync(dbufs[i], 2 * kPageSize);
        result.outputs[i] =
            dev.engine.readResult(dbufs[i], plain.size() + 16);
    }

    result.queue = topo.slot(far_slot).queue.stats();
    result.link = topo.cxlLink(1)->stats();
    return result;
}

/** Randomized bounded plan over the two far-tier sites. */
FaultPlan
makeCxlPlan(std::uint64_t seed)
{
    Rng rng(seed * 7919 + 29);
    FaultPlan plan(seed);
    // The stall site triggers on every link flit (thousands per run),
    // so bound it by count; the timeout site triggers once per
    // descriptor, so a handful of drops exercises recovery repeatedly.
    plan.add(Site::kCxlLinkStall, rng.below(64), 1 + rng.below(4),
             rng.chance(0.5) ? 1.0 : 0.6);
    plan.add(Site::kCxlTimeout, rng.below(8), 1 + rng.below(3),
             rng.chance(0.5) ? 1.0 : 0.6);
    return plan;
}

void
checkSoak(std::uint64_t seed, const FaultPlan &plan,
          const SoakResult &run, const SoakResult &reference)
{
    SCOPED_TRACE("seed " + std::to_string(seed));

    // (a) exactly-once completion, timeout or not.
    ASSERT_EQ(run.callbacks.size(), kOffloads);
    for (const auto &[id, count] : run.callbacks)
        EXPECT_EQ(count, 1u) << "descriptor " << id;
    EXPECT_EQ(run.queue.submitted, kOffloads);
    EXPECT_EQ(run.queue.completions, kOffloads);
    EXPECT_EQ(run.queue.bailouts, 0u)
        << "recovery must account for every withheld timeout";

    // (b) conservation, site by site.
    EXPECT_EQ(run.queue.withheld_timeouts,
              plan.injected(Site::kCxlTimeout));
    EXPECT_EQ(run.link.injected_stalls,
              plan.injected(Site::kCxlLinkStall));
    EXPECT_EQ(run.queue.recovered_records, run.queue.withheld_timeouts)
        << "every dropped response is recovered exactly once";
    EXPECT_EQ(run.queue.withheld_completions,
              run.queue.completions - run.queue.withheld_timeouts);
    EXPECT_EQ(run.queue.withheld_reads, run.queue.submitted);
    EXPECT_EQ(run.queue.lost_records, 0u)
        << "the withheld mode never takes the lossy record path";

    // A timeout surfaces as a degraded record (the host cannot trust
    // a completion it never saw); nothing else degrades in this plan.
    std::uint64_t degraded = 0;
    for (const auto &[id, status] : run.statuses)
        degraded += status == CompletionStatus::kDegraded;
    EXPECT_EQ(degraded, run.queue.withheld_timeouts);

    // (c) stalls and timeouts never corrupt data: the offloads DID
    // run, so every output matches the fault-free reference.
    EXPECT_EQ(run.outputs, reference.outputs);
}

TEST(CxlContract, SoakedSeedsHoldCompletionInvariants)
{
    const std::uint64_t seeds = envU64("SD_FAULT_SOAK_SEEDS", 4);
    const std::uint64_t base = envU64("SD_FAULT_SEED", 1);
    const SoakResult reference = runWorkload(nullptr);
    EXPECT_EQ(reference.queue.withheld_completions, kOffloads);
    EXPECT_GT(reference.queue.polls_saved, kOffloads)
        << "each far offload must save at least one poll round trip";
    EXPECT_EQ(reference.queue.poll_bytes_saved,
              reference.queue.polls_saved * kCacheLineSize);

    for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
        FaultPlan plan = makeCxlPlan(seed);
        const SoakResult run = runWorkload(&plan);
        checkSoak(seed, plan, run, reference);
        EXPECT_GE(plan.injected(Site::kCxlLinkStall), 1u)
            << "seed " << seed
            << ": the stall rule must fire on this flit count";
    }
}

TEST(CxlContract, SameSeedReplaysBitIdentically)
{
    const std::uint64_t seed = envU64("SD_FAULT_SEED", 1);
    FaultPlan plan_a = makeCxlPlan(seed);
    FaultPlan plan_b = makeCxlPlan(seed);
    const SoakResult a = runWorkload(&plan_a);
    const SoakResult b = runWorkload(&plan_b);

    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.queue.withheld_timeouts, b.queue.withheld_timeouts);
    EXPECT_EQ(a.link.injected_stalls, b.link.injected_stalls);
    EXPECT_EQ(a.link.queue_ticks, b.link.queue_ticks);
    EXPECT_EQ(plan_a.injected(Site::kCxlLinkStall),
              plan_b.injected(Site::kCxlLinkStall));
    EXPECT_EQ(plan_a.injected(Site::kCxlTimeout),
              plan_b.injected(Site::kCxlTimeout));
}

} // namespace
