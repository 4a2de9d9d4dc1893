/**
 * @file
 * Fault paths of the work-queue front end: injected kQueueFull
 * backpressure (a stuck not-ready signal — every injection is exactly
 * one rejected submit, and run()'s bounded retry rides it
 * out), and kLostCompletion (the host-visible record drops after the
 * device ack; poll-timeout recovery diffs kQueueStatus and synthesises
 * the record, flagged `recovered`).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/queue.h"
#include "crypto/aes_gcm.h"
#include "fault/fault.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "topo/topology.h"

namespace {

using namespace sd;
using compcpy::CompletionStatus;
using compcpy::Descriptor;
using compcpy::WorkQueue;
using compcpy::WorkQueueConfig;
using fault::FaultPlan;
using fault::Site;

/** One-channel SmartDIMM rig: a 1x1 topology with a 4 MB LLC. */
topo::TopologySpec
systemSpec()
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    return spec;
}

/** A staged 4 KB TLS op plus its software-reference ciphertext. */
struct TlsOp
{
    compcpy::CompCpyParams params;
    std::vector<std::uint8_t> expect; ///< ciphertext || tag
    std::size_t dst_bytes = 0;
};

TlsOp
makeTlsOp(topo::Topology &sys, Rng &rng, std::uint64_t msg_id)
{
    const std::size_t len = 4096;
    TlsOp op;
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), len);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    op.dst_bytes = divCeil(len + 16, kPageSize) * kPageSize;
    const Addr sbuf = sys.slot(0).driver.alloc(len);
    const Addr dbuf = sys.slot(0).driver.alloc(op.dst_bytes);
    sys.memory().writeSync(sbuf, plain.data(), len);

    op.params.sbuf = sbuf;
    op.params.dbuf = dbuf;
    op.params.size = len;
    op.params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    op.params.message_id = msg_id;
    std::memcpy(op.params.key, key, 16);
    op.params.iv = iv;

    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    op.expect.resize(len + 16);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), len, op.expect.data());
    std::memcpy(op.expect.data() + len, tag.data(), 16);
    return op;
}

void
verify(topo::Topology &sys, const TlsOp &op)
{
    sys.slot(0).engine.useSync(op.params.dbuf, op.dst_bytes);
    const auto result =
        sys.slot(0).engine.readResult(op.params.dbuf, op.expect.size());
    EXPECT_EQ(result, op.expect) << "output must stay bit-exact";
}

TEST(QueueFaults, InjectedQueueFullRejectsExactlyPerInjection)
{
    topo::Topology sys(systemSpec());
    FaultPlan plan(51);
    plan.add(Site::kQueueFull, 0, /*count=*/2);
    sys.setFaultPlan(&plan);

    WorkQueueConfig cfg;
    cfg.depth = 8; // room to spare: rejections are purely injected
    WorkQueue queue(sys.slot(0).engine, cfg);

    Rng rng(52);
    TlsOp op = makeTlsOp(sys, rng, 1);

    // The plan is consulted only when the ring has room, so each
    // injection maps to exactly one rejected submit — conservation.
    EXPECT_FALSE(queue.submit(Descriptor::single(op.params)).has_value());
    EXPECT_FALSE(queue.submit(Descriptor::single(op.params)).has_value());
    const auto id = queue.submit(Descriptor::single(op.params));
    ASSERT_TRUE(id.has_value());

    EXPECT_EQ(plan.injected(Site::kQueueFull), 2u);
    EXPECT_EQ(queue.stats().rejected_full, 2u);
    EXPECT_EQ(queue.stats().submitted, 1u);

    const auto rec = queue.wait(*id);
    EXPECT_EQ(rec.status, CompletionStatus::kSuccess);
    EXPECT_FALSE(rec.recovered);
    verify(sys, op);
}

TEST(QueueFaults, RunRetriesThroughInjectedFull)
{
    topo::Topology sys(systemSpec());
    FaultPlan plan(53);
    plan.add(Site::kQueueFull, 0, /*count=*/3);
    sys.setFaultPlan(&plan);

    Rng rng(54);
    TlsOp op = makeTlsOp(sys, rng, 2);
    sys.slot(0).queue.run(op.params); // must not wedge: bounded retry

    const auto &qs = sys.slot(0).queue.stats();
    EXPECT_EQ(plan.injected(Site::kQueueFull), 3u);
    EXPECT_EQ(qs.rejected_full, 3u);
    EXPECT_EQ(qs.submitted, 1u);
    EXPECT_EQ(qs.completions, 1u);
    EXPECT_EQ(qs.bailouts, 0u);
    verify(sys, op);
}

TEST(QueueFaults, LostCompletionRecoveredByWait)
{
    topo::Topology sys(systemSpec());
    FaultPlan plan(55);
    plan.add(Site::kLostCompletion, 0, /*count=*/1);
    sys.setFaultPlan(&plan);

    Rng rng(56);
    TlsOp op = makeTlsOp(sys, rng, 3);
    sys.slot(0).queue.run(op.params); // wait() inside recovers the record

    const auto &qs = sys.slot(0).queue.stats();
    EXPECT_EQ(plan.injected(Site::kLostCompletion), 1u);
    EXPECT_EQ(qs.lost_records, 1u);
    EXPECT_EQ(qs.recovered_records, 1u);
    EXPECT_EQ(qs.completions, 1u);
    EXPECT_GE(qs.recovery_polls, 1u);
    EXPECT_EQ(qs.bailouts, 0u)
        << "a recoverable drop must not escalate to bailout";
    // Recovery re-derived the loss from the device's kQueueStatus
    // counts, so the device saw both the doorbell and the ack.
    EXPECT_EQ(sys.slot(0).device.stats().doorbell_rings, 1u);
    EXPECT_EQ(sys.slot(0).device.stats().completion_acks, 1u);
    verify(sys, op);
}

TEST(QueueFaults, LostCompletionRecoveredByPollTimeout)
{
    topo::Topology sys(systemSpec());
    FaultPlan plan(57);
    plan.add(Site::kLostCompletion, 0, /*count=*/1);
    sys.setFaultPlan(&plan);

    WorkQueue queue(sys.slot(0).engine, WorkQueueConfig{});

    Rng rng(58);
    TlsOp op = makeTlsOp(sys, rng, 4);
    const auto id = queue.submit(Descriptor::single(op.params));
    ASSERT_TRUE(id.has_value());

    // Run the op to completion: the device acked, the record dropped.
    sys.events().run();
    EXPECT_EQ(queue.stats().lost_records, 1u);
    EXPECT_EQ(queue.occupancy(), 1u) << "descriptor still unrecorded";
    EXPECT_TRUE(queue.poll().empty())
        << "no recovery before the poll timeout";
    EXPECT_EQ(queue.stats().recovery_polls, 0u);

    // Age the unrecorded descriptor past the poll timeout.
    sys.events().runUntil(sys.events().now() + compcpy::kPollTimeout);

    // First poll finds nothing but arms recovery (kQueueStatus read)…
    EXPECT_TRUE(queue.poll().empty());
    sys.events().run();

    // …and the next poll reaps the synthesised record.
    const auto records = queue.poll();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].id, *id);
    EXPECT_TRUE(records[0].recovered);
    EXPECT_EQ(records[0].status, CompletionStatus::kSuccess);
    EXPECT_EQ(queue.stats().recovered_records, 1u);
    EXPECT_GE(queue.stats().recovery_polls, 1u);
    EXPECT_EQ(queue.occupancy(), 0u);
    verify(sys, op);
}

TEST(QueueFaults, RepeatedLossesAllRecoverInOneBatch)
{
    // Three descriptors, every record dropped: one recovery poll can
    // account for all of them (deficit == 3) in submission order.
    topo::Topology sys(systemSpec());
    FaultPlan plan(59);
    plan.add(Site::kLostCompletion, 0, /*count=*/3);
    sys.setFaultPlan(&plan);

    WorkQueue queue(sys.slot(0).engine, WorkQueueConfig{});

    Rng rng(60);
    std::vector<TlsOp> ops;
    for (int i = 0; i < 3; ++i) {
        ops.push_back(makeTlsOp(sys, rng, 10 + i));
        ASSERT_TRUE(
            queue.submit(Descriptor::single(ops.back().params))
                .has_value());
    }
    sys.events().run();
    EXPECT_EQ(queue.stats().lost_records, 3u);
    sys.events().runUntil(sys.events().now() + compcpy::kPollTimeout);

    EXPECT_TRUE(queue.poll().empty()); // arms recovery
    sys.events().run();
    const auto records = queue.poll();
    ASSERT_EQ(records.size(), 3u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_TRUE(records[i].recovered);
        EXPECT_EQ(records[i].id, i + 1)
            << "recovery reaps oldest-first";
    }
    EXPECT_EQ(queue.stats().recovered_records, 3u);
    EXPECT_EQ(queue.stats().bailouts, 0u);
    for (const auto &op : ops)
        verify(sys, op);
}

} // namespace
