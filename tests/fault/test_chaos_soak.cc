/**
 * @file
 * Property-based chaos harness: N seeds, each deriving a randomized
 * FaultPlan, drive the full CompCpy pipeline (two TLS records + one
 * ordered Deflate page) and a TCP transfer. Invariants per seed:
 *
 *  (a) zero panics — every run completes;
 *  (b) when no degradation signal fired, every output byte matches the
 *      fault-free reference run (recovered faults are invisible);
 *  (c) stat conservation — every injected fault is accounted for by an
 *      observed retry, rejection, lie or violation counter, exactly.
 *
 * Env knobs: SD_FAULT_SOAK_SEEDS (seed count, default 4),
 * SD_FAULT_SEED (base seed, default 1), SD_FAULT_PLAN (explicit plan
 * spec for a one-off run, see FaultPlan::fromSpec).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/queue.h"
#include "fault/fault.h"
#include "net/tcp_stream.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "topo/topology.h"

namespace {

using namespace sd;
using fault::FaultPlan;
using fault::Site;

std::uint64_t
envU64(const char *name, std::uint64_t dflt)
{
    const char *value = std::getenv(name);
    return value ? std::strtoull(value, nullptr, 0) : dflt;
}

/** One-channel SmartDIMM rig: a 1x1 topology with a 4 MB LLC. */
topo::TopologySpec
systemSpec()
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    return spec;
}

/** Everything a soak run produces. */
struct SoakResult
{
    std::vector<std::uint8_t> tls_small;
    std::vector<std::uint8_t> tls_large;
    std::vector<std::uint8_t> deflate_raw; ///< raw dbuf page, unparsed

    // Stat snapshot for the conservation checks.
    mem::ControllerStats ctrl;
    smartdimm::ArbiterStats arbiter;
    smartdimm::DsaStats dsa;
    smartdimm::CuckooStats cuckoo;
    compcpy::CompCpyStats engine;
    compcpy::WorkQueueStats queue; ///< the slot's work queue
    std::uint64_t degraded_reads = 0;

    bool
    degraded() const
    {
        return degraded_reads > 0 || arbiter.rejected_registrations > 0 ||
               engine.fence_violations > 0 || dsa.deflate_order_faults > 0;
    }
};

/** The fixed three-call workload, with or without a fault plan. */
SoakResult
runWorkload(FaultPlan *plan)
{
    topo::Topology sys(systemSpec());
    if (plan)
        sys.setFaultPlan(plan);

    Rng rng(99); // workload data is fixed across all soaks
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    SoakResult result;

    auto tls = [&](std::size_t len, std::uint64_t message_id) {
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
        params.message_id = message_id;
        std::memcpy(params.key, key, 16);
        params.iv = iv;
        params.iv[0] ^= static_cast<std::uint8_t>(message_id);

        sys.slot(0).queue.run(params);
        sys.slot(0).engine.useSync(
            dbuf, divCeil(len + 16, kPageSize) * kPageSize);
        return sys.slot(0).engine.readResult(dbuf, len + 16);
    };
    result.tls_small = tls(4096, 1);
    result.tls_large = tls(8192, 2);

    // Ordered Deflate page (the only consumer of kOrderedFence).
    {
        std::vector<std::uint8_t> staged(kPageSize, 0);
        for (std::size_t i = 0; i < 4000; ++i)
            staged[i] = static_cast<std::uint8_t>("soak data!"[i % 10]);
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
        result.deflate_raw = sys.slot(0).engine.readResult(dbuf, kPageSize);
    }

    result.ctrl = sys.memory().controller(0).stats();
    result.arbiter = sys.slot(0).device.stats();
    result.dsa = sys.slot(0).device.dsaStats();
    result.cuckoo = sys.slot(0).device.translationTable().stats();
    result.engine = sys.slot(0).engine.stats();
    result.queue = sys.slot(0).queue.stats();
    result.degraded_reads = sys.memory().degradedReads();
    return result;
}

/** Randomized bounded plan for one seed. */
FaultPlan
makeChaosPlan(std::uint64_t seed)
{
    // Separate stream for plan *construction* so it never aliases the
    // plan's own decision RNG.
    Rng rng(seed * 7919 + 17);
    FaultPlan plan(seed);
    const Site sites[] = {
        Site::kAlertStorm,      Site::kWriteDrainDelay,
        Site::kFreePagesLie,    Site::kScratchpadExhaust,
        Site::kConfigMemExhaust, Site::kCuckooConflict,
        Site::kCuckooInsertFail, Site::kOrderedFence,
        Site::kQueueFull,        Site::kLostCompletion,
    };
    for (const Site site : sites) {
        if (!rng.chance(0.5))
            continue;
        const std::uint64_t skip = rng.below(4);
        const std::uint64_t count = 1 + rng.below(4);
        const double p = rng.chance(0.5) ? 1.0 : 0.6;
        plan.add(site, skip, count, p);
    }
    return plan;
}

/** Invariants (b) and (c) for one completed soak. */
void
checkSoak(std::uint64_t seed, const FaultPlan &plan,
          const SoakResult &run, const SoakResult &reference)
{
    SCOPED_TRACE("seed " + std::to_string(seed));

    // (c) conservation: injected == observed, site by site.
    EXPECT_EQ(run.ctrl.spurious_alerts, plan.injected(Site::kAlertStorm));
    EXPECT_EQ(run.ctrl.alert_retries,
              run.arbiter.alert_n + run.ctrl.spurious_alerts)
        << "every retry must trace to a genuine or injected ALERT_N";
    EXPECT_EQ(run.arbiter.freepages_lies,
              plan.injected(Site::kFreePagesLie));
    EXPECT_EQ(run.arbiter.rejected_registrations,
              plan.injected(Site::kScratchpadExhaust) +
                  plan.injected(Site::kConfigMemExhaust) +
                  run.cuckoo.failures)
        << "every rejection needs exactly one cause";
    EXPECT_EQ(run.engine.rejected_registrations,
              run.arbiter.rejected_registrations)
        << "kFaultStatus polling must observe every rejection";
    EXPECT_EQ(run.engine.fence_violations,
              plan.injected(Site::kOrderedFence));
    EXPECT_EQ(run.degraded_reads, run.ctrl.degraded_reads);
    // Work-queue conservation: the slot's queue never fills
    // genuinely in this serial workload, so every rejected submit is
    // an injection; every dropped record is recovered, never bailed.
    EXPECT_EQ(run.queue.rejected_full, plan.injected(Site::kQueueFull));
    EXPECT_EQ(run.queue.lost_records,
              plan.injected(Site::kLostCompletion));
    EXPECT_EQ(run.queue.recovered_records, run.queue.lost_records);
    EXPECT_EQ(run.queue.completions, run.queue.submitted);
    EXPECT_EQ(run.queue.reaped, run.queue.completions)
        << "every completion record must be reaped";
    EXPECT_EQ(run.queue.bailouts, 0u)
        << "recovery must account for every lost record";
    EXPECT_EQ(run.queue.submitted_ops, run.engine.calls);
    EXPECT_EQ(run.engine.degraded_calls > 0,
              run.engine.rejected_registrations > 0)
        << "in-call degradation == rejections in this workload";

    // (b) recovered faults are invisible: without a degradation
    // signal, outputs are bit-exact against the fault-free reference.
    if (!run.degraded()) {
        EXPECT_EQ(run.tls_small, reference.tls_small);
        EXPECT_EQ(run.tls_large, reference.tls_large);
        EXPECT_EQ(run.deflate_raw, reference.deflate_raw);
    } else {
        // Degradation must never be silent: at least one engine- or
        // memory-visible signal accompanies any possible divergence.
        EXPECT_TRUE(run.engine.degraded_calls > 0 ||
                    run.degraded_reads > 0 ||
                    run.engine.fence_violations > 0);
    }
}

TEST(ChaosSoak, RandomizedFaultPlansHoldInvariants)
{
    const std::uint64_t seeds = envU64("SD_FAULT_SOAK_SEEDS", 4);
    const std::uint64_t base = envU64("SD_FAULT_SEED", 1);
    const SoakResult reference = runWorkload(nullptr);
    ASSERT_FALSE(reference.degraded())
        << "fault-free reference must be clean";

    for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
        FaultPlan plan = makeChaosPlan(seed);
        const SoakResult run = runWorkload(&plan);
        checkSoak(seed, plan, run, reference);
    }
}

TEST(ChaosSoak, SameSeedReplaysBitIdentically)
{
    const std::uint64_t seed = envU64("SD_FAULT_SEED", 1);
    FaultPlan plan_a = makeChaosPlan(seed);
    FaultPlan plan_b = makeChaosPlan(seed);
    const SoakResult a = runWorkload(&plan_a);
    const SoakResult b = runWorkload(&plan_b);

    EXPECT_EQ(a.tls_small, b.tls_small);
    EXPECT_EQ(a.tls_large, b.tls_large);
    EXPECT_EQ(a.deflate_raw, b.deflate_raw);
    EXPECT_EQ(a.ctrl.alert_retries, b.ctrl.alert_retries);
    EXPECT_EQ(a.ctrl.degraded_reads, b.ctrl.degraded_reads);
    EXPECT_EQ(a.arbiter.rejected_registrations,
              b.arbiter.rejected_registrations);
    EXPECT_EQ(a.engine.fence_violations, b.engine.fence_violations);
    for (std::size_t s = 0; s < static_cast<std::size_t>(Site::kCount);
         ++s) {
        const Site site = static_cast<Site>(s);
        EXPECT_EQ(plan_a.injected(site), plan_b.injected(site))
            << fault::siteName(site);
    }
}

TEST(ChaosSoak, ScriptedNetworkFaultsConserve)
{
    const std::uint64_t seeds = envU64("SD_FAULT_SOAK_SEEDS", 4);
    const std::uint64_t base = envU64("SD_FAULT_SEED", 1);
    net::LossConfig loss; // no background noise: exact accounting

    for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 6151 + 3);
        FaultPlan plan(seed);
        plan.add(Site::kNetLoss, rng.below(100), 1 + rng.below(3));
        plan.add(Site::kNetReorder, rng.below(100), 1 + rng.below(3));

        const auto result =
            net::tcpTransfer(1 << 20, loss, seed, &plan);
        // burst_len == 1: each scripted drop loses exactly one
        // segment, and each lost segment is retransmitted once.
        EXPECT_EQ(result.retransmits, plan.injected(Site::kNetLoss));
        EXPECT_GE(plan.injected(Site::kNetLoss), 1u);
        if (plan.injected(Site::kNetReorder) > 0) {
            EXPECT_GE(result.reorder_events, 1u);
        }
        EXPECT_GT(result.goodput_gbps, 0.0);
    }
}

/** One 4 KB TLS record on every slot of @p topo; @return the records. */
std::vector<std::vector<std::uint8_t>>
runOnEverySlot(topo::Topology &topo)
{
    Rng rng(99);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());

    std::vector<std::vector<std::uint8_t>> records;
    for (unsigned s = 0; s < topo.slotCount(); ++s) {
        topo::Topology::Slot &slot = topo.slot(s);
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
        slot.queue.run(params);
        slot.engine.useSync(dbuf, 2 * kPageSize);
        records.push_back(slot.engine.readResult(dbuf, plain.size() + 16));
    }
    return records;
}

TEST(ChaosSoak, ScopedPlansTargetSingleDevicesOnTwoByTwo)
{
    // Per-device fault addressing end to end: a rule scoped to one
    // DIMM (or one channel's controller) of a 2x2 topology fires only
    // there, the footprint is visible only in that device's counters,
    // and every recoverable fault stays invisible in the outputs.
    const std::uint64_t seeds = envU64("SD_FAULT_SOAK_SEEDS", 4);
    const std::uint64_t base = envU64("SD_FAULT_SEED", 1);

    topo::TopologySpec spec;
    spec.channels = 2;
    spec.dimms_per_channel = 2;

    topo::Topology clean(spec);
    const auto reference = runOnEverySlot(clean);

    for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 4253 + 5);
        const unsigned victim_ch = rng.below(2);
        const unsigned victim_dimm = rng.below(2);
        const unsigned victim_mc = rng.below(2);

        // Scoped rules via the same spec grammar SD_FAULT_PLAN uses.
        const std::string text =
            "smartdimm[" + std::to_string(victim_ch) + "][" +
            std::to_string(victim_dimm) + "]/free_pages_lie:count=1," +
            "mem[" + std::to_string(victim_mc) +
            "]/alert_storm:count=2";
        auto plan = FaultPlan::fromSpec(text, seed);
        ASSERT_TRUE(plan.has_value()) << text;

        topo::Topology topo(spec);
        topo.setFaultPlan(&*plan);
        const auto records = runOnEverySlot(topo);

        // The scoped rules fired (every slot saw work), and only on
        // their addressed device.
        EXPECT_EQ(plan->injected(Site::kFreePagesLie), 1u);
        EXPECT_EQ(plan->injected(Site::kAlertStorm), 2u);
        for (unsigned ch = 0; ch < 2; ++ch) {
            for (unsigned d = 0; d < 2; ++d) {
                const auto &stats = topo.slot(ch, d).device.stats();
                const bool victim =
                    ch == victim_ch && d == victim_dimm;
                EXPECT_EQ(stats.freepages_lies, victim ? 1u : 0u)
                    << "smartdimm[" << ch << "][" << d << "]";
            }
            const auto &ctrl = topo.memory().controller(ch).stats();
            EXPECT_EQ(ctrl.spurious_alerts, ch == victim_mc ? 2u : 0u)
                << "mem[" << ch << "]";
        }

        // Both faults are recoverable: every slot's output must still
        // match the fault-free reference bit for bit.
        EXPECT_EQ(records, reference);
    }
}

TEST(ChaosSoak, EnvSpecifiedPlanRunsClean)
{
    const char *spec = std::getenv("SD_FAULT_PLAN");
    if (!spec)
        GTEST_SKIP() << "set SD_FAULT_PLAN to run an explicit plan";
    const std::uint64_t seed = envU64("SD_FAULT_SEED", 1);
    auto plan = FaultPlan::fromSpec(spec, seed);
    ASSERT_TRUE(plan.has_value()) << "malformed SD_FAULT_PLAN: " << spec;

    const SoakResult reference = runWorkload(nullptr);
    const SoakResult run = runWorkload(&*plan);
    checkSoak(seed, *plan, run, reference);
}

} // namespace
