/**
 * @file
 * Sync/async equivalence: every CompCpy scenario the sync-path suites
 * cover (single-page TLS, multi-page TLS, exact-page-boundary tag,
 * ordered Deflate) is replayed through an explicit async work queue on
 * a fresh rig. The transformed bytes must be bit-identical to the
 * synchronous run, and the accounting must conserve exactly — calls ==
 * completions, identical degraded/rejected counts — including under a
 * recoverable fault plan.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/queue.h"
#include "fault/fault.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "topo/topology.h"

namespace {

using namespace sd;
using compcpy::CompletionStatus;
using compcpy::Descriptor;
using compcpy::QueueMode;
using compcpy::WorkQueue;
using compcpy::WorkQueueConfig;

/** One-channel SmartDIMM rig: a 1x1 topology with a 4 MB LLC. */
topo::TopologySpec
systemSpec()
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    spec.driver_bytes = 512ULL << 20;
    return spec;
}

/** One scenario of the shared workload (fixed data, Rng(31)). */
struct Scenario
{
    std::string name;
    std::size_t len = 0;
    bool ordered = false;
    smartdimm::UlpKind ulp = smartdimm::UlpKind::kTlsEncrypt;
};

const Scenario kScenarios[] = {
    {"tls_4k", 4096, false, smartdimm::UlpKind::kTlsEncrypt},
    {"tls_multipage", 3 * 4096 + 1000, false,
     smartdimm::UlpKind::kTlsEncrypt},
    {"tls_page_boundary_tag", 8192, false,
     smartdimm::UlpKind::kTlsEncrypt},
    {"deflate_ordered", 4000, true, smartdimm::UlpKind::kDeflate},
};

/** Everything one workload run produces. */
struct RunResult
{
    std::vector<std::vector<std::uint8_t>> outputs; ///< per scenario
    compcpy::CompCpyStats engine;
    compcpy::WorkQueueStats queue; ///< of whichever queue executed
};

/** Stage one scenario's source buffer and build its params. */
compcpy::CompCpyParams
stageScenario(topo::Topology &sys, const Scenario &sc, Rng &rng,
              const std::uint8_t key[16], const crypto::GcmIv &iv,
              std::uint64_t msg_id, Addr *dbuf_out,
              std::size_t *dst_bytes_out)
{
    const std::size_t src_bytes =
        divCeil(sc.len, kPageSize) * kPageSize;
    const std::size_t dst_bytes =
        sc.ulp == smartdimm::UlpKind::kTlsEncrypt
            ? divCeil(sc.len + 16, kPageSize) * kPageSize
            : src_bytes;
    const Addr sbuf = sys.slot(0).driver.alloc(src_bytes);
    const Addr dbuf = sys.slot(0).driver.alloc(dst_bytes);

    std::vector<std::uint8_t> staged(src_bytes, 0);
    if (sc.ulp == smartdimm::UlpKind::kTlsEncrypt) {
        rng.fill(staged.data(), sc.len);
    } else {
        for (std::size_t i = 0; i < sc.len; ++i)
            staged[i] = static_cast<std::uint8_t>("equivalence"[i % 11]);
    }
    sys.memory().writeSync(sbuf, staged.data(), staged.size());

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = sc.len;
    params.ordered = sc.ordered;
    params.ulp = sc.ulp;
    params.message_id = msg_id;
    std::memcpy(params.key, key, 16);
    params.iv = iv;
    params.iv[0] ^= static_cast<std::uint8_t>(msg_id);
    *dbuf_out = dbuf;
    *dst_bytes_out = dst_bytes;
    return params;
}

/**
 * Run the four-scenario workload. Sync mode calls engine.run() per
 * scenario; async mode stages everything first, submits all four
 * descriptors into one explicit work queue, drains, and only then
 * consumes the outputs — many flows genuinely in flight together.
 */
RunResult
runWorkload(bool async, fault::FaultPlan *plan)
{
    topo::Topology sys(systemSpec());
    if (plan)
        sys.setFaultPlan(plan);

    Rng rng(31); // fixed workload data in both modes
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const std::size_t n = std::size(kScenarios);
    std::vector<Addr> dbufs(n);
    std::vector<std::size_t> dst_bytes(n);
    RunResult result;

    if (!async) {
        for (std::size_t i = 0; i < n; ++i) {
            const auto params =
                stageScenario(sys, kScenarios[i], rng, key, iv, i + 1,
                              &dbufs[i], &dst_bytes[i]);
            sys.slot(0).engine.run(params);
        }
        result.queue = sys.slot(0).engine.syncQueue().stats();
    } else {
        WorkQueueConfig cfg;
        cfg.id = 3;
        cfg.mode = QueueMode::kShared;
        cfg.depth = 8;
        cfg.max_inflight = 4;
        WorkQueue queue(sys.slot(0).engine, cfg);
        for (std::size_t i = 0; i < n; ++i) {
            const auto params =
                stageScenario(sys, kScenarios[i], rng, key, iv, i + 1,
                              &dbufs[i], &dst_bytes[i]);
            EXPECT_TRUE(
                queue.submit(Descriptor::single(params)).has_value())
                << kScenarios[i].name;
        }
        queue.drain();
        const auto records = queue.poll();
        EXPECT_EQ(records.size(), n);
        result.queue = queue.stats();
    }

    for (std::size_t i = 0; i < n; ++i) {
        sys.slot(0).engine.useSync(dbufs[i], dst_bytes[i]);
        const std::size_t out_len =
            kScenarios[i].ulp == smartdimm::UlpKind::kTlsEncrypt
                ? kScenarios[i].len + 16
                : dst_bytes[i];
        result.outputs.push_back(
            sys.slot(0).engine.readResult(dbufs[i], out_len));
    }
    result.engine = sys.slot(0).engine.stats();
    return result;
}

/** Equivalence checks shared by the fault-free and faulted variants. */
void
checkEquivalent(const RunResult &sync, const RunResult &async)
{
    ASSERT_EQ(sync.outputs.size(), async.outputs.size());
    for (std::size_t i = 0; i < sync.outputs.size(); ++i)
        EXPECT_EQ(sync.outputs[i], async.outputs[i])
            << kScenarios[i].name
            << ": async bytes must be bit-identical to sync";

    // Conservation: every call completes in both modes, and the
    // fault-outcome accounting is mode-independent.
    EXPECT_EQ(sync.queue.submitted_ops, sync.engine.calls);
    EXPECT_EQ(async.queue.submitted_ops, async.engine.calls);
    EXPECT_EQ(sync.queue.submitted, sync.queue.completions);
    EXPECT_EQ(async.queue.submitted, async.queue.completions);
    EXPECT_EQ(sync.engine.calls, async.engine.calls);
    EXPECT_EQ(sync.engine.degraded_calls, async.engine.degraded_calls);
    EXPECT_EQ(sync.engine.rejected_registrations,
              async.engine.rejected_registrations);
    EXPECT_EQ(sync.queue.degraded, async.queue.degraded);
    EXPECT_EQ(sync.queue.rejected, async.queue.rejected);
    EXPECT_EQ(sync.queue.bailouts, async.queue.bailouts);
}

TEST(SyncAsyncEquivalence, FaultFreeWorkloadsAreBitIdentical)
{
    const RunResult sync = runWorkload(/*async=*/false, nullptr);
    const RunResult async = runWorkload(/*async=*/true, nullptr);
    checkEquivalent(sync, async);
    EXPECT_EQ(sync.engine.degraded_calls, 0u);
    EXPECT_EQ(async.queue.degraded, 0u);
    EXPECT_EQ(async.queue.bailouts, 0u);
}

TEST(SyncAsyncEquivalence, RecoverableFaultPlanStaysEquivalent)
{
    // The golden-trace fault plan: an ALERT_N storm plus one freePages
    // lie — both recoverable, so outputs stay bit-exact and neither
    // mode may degrade.
    auto makePlan = [] {
        fault::FaultPlan plan(41);
        plan.add(fault::Site::kAlertStorm, /*skip=*/4, /*count=*/2);
        plan.add(fault::Site::kFreePagesLie, 0, /*count=*/1);
        return plan;
    };
    fault::FaultPlan sync_plan = makePlan();
    fault::FaultPlan async_plan = makePlan();
    const RunResult sync = runWorkload(/*async=*/false, &sync_plan);
    const RunResult async = runWorkload(/*async=*/true, &async_plan);

    checkEquivalent(sync, async);
    // Both modes consumed the identical injection budget.
    for (std::size_t s = 0; s < static_cast<std::size_t>(
                                    fault::Site::kCount);
         ++s) {
        const auto site = static_cast<fault::Site>(s);
        EXPECT_EQ(sync_plan.injected(site), async_plan.injected(site))
            << fault::siteName(site);
    }
    EXPECT_EQ(sync.engine.degraded_calls, 0u);
    EXPECT_EQ(async.engine.degraded_calls, 0u);
}

TEST(SyncAsyncEquivalence, AsyncReplaysBitIdentically)
{
    // Determinism of the async path itself: same seed, same outputs,
    // same queue accounting.
    const RunResult a = runWorkload(/*async=*/true, nullptr);
    const RunResult b = runWorkload(/*async=*/true, nullptr);
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t i = 0; i < a.outputs.size(); ++i)
        EXPECT_EQ(a.outputs[i], b.outputs[i]) << kScenarios[i].name;
    EXPECT_EQ(a.queue.completions, b.queue.completions);
    EXPECT_EQ(a.queue.doorbells, b.queue.doorbells);
    EXPECT_EQ(a.engine.lines_copied, b.engine.lines_copied);
}

} // namespace
