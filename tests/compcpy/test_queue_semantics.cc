/**
 * @file
 * Descriptor/work-queue semantics: descriptor lifecycle and record
 * ticks, strict FIFO dispatch per queue, shared-vs-dedicated submitter
 * arbitration, queue-full backpressure, batch-descriptor fan-out /
 * fan-in, and the sync-facade contract (run() is submit-then-poll on
 * the engine's internal queue).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/queue.h"
#include "crypto/aes_gcm.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "topo/topology.h"

namespace {

using namespace sd;
using compcpy::CompletionRecord;
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

/** A staged TLS op plus everything needed to verify its output. */
struct TlsOp
{
    compcpy::CompCpyParams params;
    std::vector<std::uint8_t> plain;
    std::uint8_t key[16];
    crypto::GcmIv iv{};
    std::size_t dst_bytes = 0;
};

/** Stage @p len plaintext bytes and build the matching CompCpyParams. */
TlsOp
makeTlsOp(topo::Topology &sys, Rng &rng, std::size_t len, std::uint64_t msg_id)
{
    TlsOp op;
    op.plain.resize(len);
    rng.fill(op.plain.data(), len);
    rng.fill(op.key, sizeof(op.key));
    rng.fill(op.iv.data(), op.iv.size());

    const std::size_t src_bytes = divCeil(len, kPageSize) * kPageSize;
    op.dst_bytes = divCeil(len + 16, kPageSize) * kPageSize;
    const Addr sbuf = sys.slot(0).driver.alloc(src_bytes);
    const Addr dbuf = sys.slot(0).driver.alloc(op.dst_bytes);
    std::vector<std::uint8_t> staged(src_bytes, 0);
    std::memcpy(staged.data(), op.plain.data(), len);
    sys.memory().writeSync(sbuf, staged.data(), staged.size());

    op.params.sbuf = sbuf;
    op.params.dbuf = dbuf;
    op.params.size = len;
    op.params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    op.params.message_id = msg_id;
    std::memcpy(op.params.key, op.key, sizeof(op.key));
    op.params.iv = op.iv;
    return op;
}

/** useSync + readResult + compare against the software GCM. */
void
verifyTlsOutput(topo::Topology &sys, const TlsOp &op)
{
    sys.slot(0).engine.useSync(op.params.dbuf, op.dst_bytes);
    const auto result =
        sys.slot(0).engine.readResult(op.params.dbuf, op.plain.size() + 16);
    crypto::GcmContext ctx(op.key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(op.plain.size());
    const crypto::GcmTag tag = ctx.encrypt(op.iv, op.plain.data(),
                                           op.plain.size(), expect.data());
    ASSERT_EQ(result.size(), op.plain.size() + 16);
    EXPECT_EQ(0, std::memcmp(result.data(), expect.data(), op.plain.size()))
        << "ciphertext mismatch (message " << op.params.message_id << ")";
    EXPECT_EQ(0, std::memcmp(result.data() + op.plain.size(), tag.data(),
                             16))
        << "tag mismatch (message " << op.params.message_id << ")";
}

TEST(QueueSemantics, SingleDescriptorLifecycle)
{
    topo::Topology sys(systemSpec());
    WorkQueueConfig cfg;
    cfg.id = 2;
    cfg.depth = 8;
    WorkQueue queue(sys.slot(0).engine, cfg);

    Rng rng(21);
    TlsOp op = makeTlsOp(sys, rng, 4096, 1);

    const auto id =
        queue.submit(Descriptor::single(op.params), /*submitter=*/5);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, 1u);
    EXPECT_EQ(queue.occupancy(), 1u);

    const CompletionRecord rec = queue.wait(*id);
    EXPECT_EQ(rec.id, 1u);
    EXPECT_EQ(rec.queue, 2u);
    EXPECT_EQ(rec.submitter, 5u);
    EXPECT_EQ(rec.ops, 1u);
    EXPECT_EQ(rec.status, CompletionStatus::kSuccess);
    EXPECT_FALSE(rec.recovered);

    // Lifecycle ticks advance monotonically through the protocol:
    // accepted, then dispatched once the doorbell landed, then
    // completion-recorded after the op and the device ack finished.
    EXPECT_LE(rec.submitted, rec.dispatched);
    EXPECT_LT(rec.dispatched, rec.completed);

    EXPECT_EQ(queue.occupancy(), 0u);
    EXPECT_EQ(queue.stats().submitted, 1u);
    EXPECT_EQ(queue.stats().completions, 1u);
    EXPECT_EQ(queue.stats().reaped, 1u);
    EXPECT_EQ(queue.stats().doorbells, 1u);
    EXPECT_EQ(queue.completionLatency().count(), 1u);
    verifyTlsOutput(sys, op);
}

TEST(QueueSemantics, FifoDispatchOrderPerQueue)
{
    topo::Topology sys(systemSpec());
    WorkQueueConfig cfg;
    cfg.depth = 16;
    cfg.max_inflight = 4;
    WorkQueue queue(sys.slot(0).engine, cfg);

    Rng rng(22);
    constexpr int kDescs = 6;
    std::vector<TlsOp> ops;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kDescs; ++i)
        ops.push_back(makeTlsOp(sys, rng, 4096, 100 + i));
    for (int i = 0; i < kDescs; ++i) {
        const auto id = queue.submit(Descriptor::single(ops[i].params));
        ASSERT_TRUE(id.has_value());
        ids.push_back(*id);
    }
    queue.drain();

    auto records = queue.poll();
    ASSERT_EQ(records.size(), static_cast<std::size_t>(kDescs));

    // Strict FIFO: ascending descriptor id means ascending dispatch
    // tick — a later submission never starts executing first.
    std::sort(records.begin(), records.end(),
              [](const CompletionRecord &a, const CompletionRecord &b) {
                  return a.id < b.id;
              });
    for (int i = 0; i < kDescs; ++i) {
        EXPECT_EQ(records[i].id, ids[i]);
        EXPECT_EQ(records[i].status, CompletionStatus::kSuccess);
        if (i > 0) {
            EXPECT_GE(records[i].dispatched, records[i - 1].dispatched)
                << "descriptor " << ids[i] << " dispatched before "
                << ids[i - 1];
        }
    }
    for (const auto &op : ops)
        verifyTlsOutput(sys, op);
}

TEST(QueueSemantics, DedicatedQueueRejectsForeignSubmitters)
{
    topo::Topology sys(systemSpec());
    WorkQueueConfig cfg;
    cfg.mode = QueueMode::kDedicated;
    WorkQueue queue(sys.slot(0).engine, cfg);

    Rng rng(23);
    TlsOp a = makeTlsOp(sys, rng, 4096, 1);
    TlsOp b = makeTlsOp(sys, rng, 4096, 2);
    TlsOp c = makeTlsOp(sys, rng, 4096, 3);

    // First accepted submitter binds the queue (DWQ semantics).
    const auto ida = queue.submit(Descriptor::single(a.params), 3);
    ASSERT_TRUE(ida.has_value());

    // A foreign submitter is turned away at the door, not queued.
    const auto idb = queue.submit(Descriptor::single(b.params), 5);
    EXPECT_FALSE(idb.has_value());
    EXPECT_EQ(queue.stats().rejected_submitter, 1u);
    EXPECT_EQ(queue.occupancy(), 1u);

    // The owner keeps submitting freely.
    const auto idc = queue.submit(Descriptor::single(c.params), 3);
    ASSERT_TRUE(idc.has_value());

    queue.drain();
    const auto records = queue.poll();
    ASSERT_EQ(records.size(), 2u);
    for (const auto &rec : records)
        EXPECT_EQ(rec.submitter, 3u);
    verifyTlsOutput(sys, a);
    verifyTlsOutput(sys, c);
}

TEST(QueueSemantics, SharedQueueArbitratesBySubmissionOrder)
{
    topo::Topology sys(systemSpec());
    WorkQueueConfig cfg;
    cfg.mode = QueueMode::kShared;
    cfg.max_inflight = 2;
    WorkQueue queue(sys.slot(0).engine, cfg);

    Rng rng(24);
    constexpr int kDescs = 6;
    std::vector<TlsOp> ops;
    for (int i = 0; i < kDescs; ++i)
        ops.push_back(makeTlsOp(sys, rng, 4096, 200 + i));

    // Interleaved submitters (an ENQCMD SWQ): all accepted, entries
    // arbitrate purely by submission order.
    for (int i = 0; i < kDescs; ++i) {
        const auto id = queue.submit(Descriptor::single(ops[i].params),
                                     static_cast<std::uint16_t>(i % 3));
        ASSERT_TRUE(id.has_value()) << "submitter " << i % 3;
    }
    EXPECT_EQ(queue.stats().rejected_submitter, 0u);
    queue.drain();

    auto records = queue.poll();
    ASSERT_EQ(records.size(), static_cast<std::size_t>(kDescs));
    std::sort(records.begin(), records.end(),
              [](const CompletionRecord &a, const CompletionRecord &b) {
                  return a.id < b.id;
              });
    for (int i = 0; i < kDescs; ++i) {
        EXPECT_EQ(records[i].submitter, i % 3);
        if (i > 0) {
            EXPECT_GE(records[i].dispatched, records[i - 1].dispatched)
                << "shared-queue arbitration must follow submit order";
        }
    }
    for (const auto &op : ops)
        verifyTlsOutput(sys, op);
}

TEST(QueueSemantics, QueueFullBackpressure)
{
    topo::Topology sys(systemSpec());
    WorkQueueConfig cfg;
    cfg.depth = 2;
    WorkQueue queue(sys.slot(0).engine, cfg);

    Rng rng(25);
    TlsOp a = makeTlsOp(sys, rng, 4096, 1);
    TlsOp b = makeTlsOp(sys, rng, 4096, 2);
    TlsOp c = makeTlsOp(sys, rng, 4096, 3);

    ASSERT_TRUE(queue.submit(Descriptor::single(a.params)).has_value());
    ASSERT_TRUE(queue.submit(Descriptor::single(b.params)).has_value());
    EXPECT_EQ(queue.occupancy(), 2u);

    // The ring holds depth unrecorded descriptors; the next submit
    // backpressures without side effects.
    EXPECT_FALSE(queue.submit(Descriptor::single(c.params)).has_value());
    EXPECT_EQ(queue.stats().rejected_full, 1u);
    EXPECT_EQ(queue.stats().submitted, 2u);
    EXPECT_EQ(queue.occupancy(), 2u);

    // Reaping frees slots: the same descriptor is accepted afterwards.
    queue.drain();
    EXPECT_EQ(queue.occupancy(), 0u);
    const auto id = queue.submit(Descriptor::single(c.params));
    ASSERT_TRUE(id.has_value());
    queue.drain();
    EXPECT_EQ(queue.stats().completions, 3u);
    EXPECT_EQ(queue.peakOccupancy(), 2);
    verifyTlsOutput(sys, a);
    verifyTlsOutput(sys, b);
    verifyTlsOutput(sys, c);
}

TEST(QueueSemantics, BatchDescriptorFanOutFanIn)
{
    topo::Topology sys(systemSpec());
    WorkQueueConfig cfg;
    cfg.max_inflight = 2; // smaller than the batch: fan-out is gated
    WorkQueue queue(sys.slot(0).engine, cfg);

    Rng rng(26);
    constexpr int kBatch = 4;
    std::vector<TlsOp> ops;
    std::vector<compcpy::CompCpyParams> params;
    for (int i = 0; i < kBatch; ++i) {
        ops.push_back(makeTlsOp(sys, rng, 192, 300 + i));
        params.push_back(ops.back().params);
    }

    // N small messages, one descriptor, one doorbell, one record.
    const auto id = queue.submit(Descriptor::batch(std::move(params)));
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(queue.occupancy(), 1u);

    const CompletionRecord rec = queue.wait(*id);
    EXPECT_EQ(rec.ops, static_cast<std::uint32_t>(kBatch));
    EXPECT_EQ(rec.status, CompletionStatus::kSuccess);
    EXPECT_EQ(queue.stats().batches, 1u);
    EXPECT_EQ(queue.stats().submitted, 1u);
    EXPECT_EQ(queue.stats().submitted_ops,
              static_cast<std::uint64_t>(kBatch));
    EXPECT_EQ(queue.stats().doorbells, 1u);
    EXPECT_EQ(sys.slot(0).engine.stats().calls,
              static_cast<std::uint64_t>(kBatch));

    // Fan-in happened only after every op's bytes landed.
    for (const auto &op : ops)
        verifyTlsOutput(sys, op);
}

TEST(QueueSemantics, SyncFacadeIsSubmitThenPoll)
{
    topo::Topology sys(systemSpec());
    Rng rng(27);

    for (int i = 0; i < 3; ++i) {
        TlsOp op = makeTlsOp(sys, rng, 4096, 400 + i);
        sys.slot(0).engine.run(op.params);
        verifyTlsOutput(sys, op);
    }

    // run() executed through the internal queue — one descriptor per
    // call, every record reaped, no second execution path.
    const auto &qs = sys.slot(0).engine.syncQueue().stats();
    EXPECT_EQ(qs.submitted, 3u);
    EXPECT_EQ(qs.submitted_ops, 3u);
    EXPECT_EQ(qs.completions, 3u);
    EXPECT_EQ(qs.reaped, 3u);
    EXPECT_EQ(qs.doorbells, 3u);
    EXPECT_EQ(sys.slot(0).engine.stats().calls, 3u);
    EXPECT_EQ(sys.slot(0).engine.syncQueue().occupancy(), 0u);
    EXPECT_EQ(sys.slot(0).engine.syncQueue().config().id, 0u);
}

} // namespace
