/**
 * @file
 * Multi-threaded work-queue stress: N driver threads each own an
 * independent simulated system plus a shared-mode WorkQueue and pump a
 * pipelined submit/poll loop through it — several logical submitters
 * per queue, one reaper (the owning thread), descriptors kept in
 * flight up to the ring depth — while recording into the ONE
 * process-wide tracer and one shared StatsRegistry.
 *
 * Together with test_parallel_compcpy this is the TSan gate for the
 * queue front end: the WorkQueue itself is single-owner (per-thread),
 * so what's exercised under -fsanitize=thread is exactly the shared
 * surface — tracer spans opened at submit and closed at record write,
 * plus the shared counters. Accounting must balance exactly after the
 * join: submits == completions == reaps on every queue, and no record
 * may be degraded or recovered on a fault-free run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "common/stats.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/queue.h"
#include "crypto/tls_record.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "topo/topology.h"
#include "trace/trace.h"

namespace {

using namespace sd;
using compcpy::CompletionStatus;
using compcpy::Descriptor;
using compcpy::QueueMode;
using compcpy::WorkQueue;
using compcpy::WorkQueueConfig;

constexpr unsigned kThreads = 8;
constexpr unsigned kOpsPerThread = 400;
constexpr unsigned kSubmitters = 4; // logical ids sharing one SWQ
constexpr std::size_t kPayloadBytes = 192; // 3 lines, sub-page

/** One-channel SmartDIMM system, wholly owned by one driver thread. */
topo::TopologySpec
systemSpec()
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 1ULL << 20;
    spec.driver_bytes = 64ULL << 20;
    return spec;
}

/** Shared accounting every thread hammers concurrently. */
struct SharedStats
{
    Counter submits;
    Counter reaps;
    Counter recovered;
    LogHistogram record_latency;
    trace::StatsRegistry registry;
};

/** Everything needed to verify one submitted descriptor later. */
struct InflightOp
{
    Addr sbuf = 0;
    Addr dbuf = 0;
    std::vector<std::uint8_t> plain;
    std::uint8_t key[16];
    crypto::GcmIv iv{};
};

/** One driver thread: a pipelined submit/poll loop on a private rig. */
void
driverThread(unsigned tid, SharedStats &shared)
{
    topo::Topology sys(systemSpec());
    Rng rng(0x2000 + tid);

    WorkQueueConfig cfg;
    cfg.id = static_cast<std::uint16_t>(tid % 4); // any valid queue id
    cfg.mode = QueueMode::kShared;
    cfg.depth = 16;
    cfg.max_inflight = 8;
    WorkQueue queue(sys.slot(0).engine, cfg);

    const std::string component = "qstress.t" + std::to_string(tid);
    Counter my_reaps;
    shared.registry.add(component, [&my_reaps](trace::StatsBlock &b) {
        b.scalar("reaps", static_cast<double>(my_reaps.value()));
    });

    // Stage every source buffer up front: writeSync drives the
    // private simulation synchronously, so staging inside the
    // pipelined loop would drain in-flight descriptors and defeat the
    // overlap this test exists to exercise.
    // Descriptor ids are dense from 1, so a vector indexes the book.
    std::vector<InflightOp> book(kOpsPerThread + 1);
    std::vector<compcpy::CompCpyParams> params(kOpsPerThread + 1);
    for (unsigned i = 1; i <= kOpsPerThread; ++i) {
        InflightOp &op = book[i];
        op.plain.resize(kPayloadBytes);
        rng.fill(op.plain.data(), op.plain.size());
        rng.fill(op.key, sizeof(op.key));
        rng.fill(op.iv.data(), op.iv.size());
        op.sbuf = sys.slot(0).driver.alloc(kPayloadBytes);
        op.dbuf = sys.slot(0).driver.alloc(kPayloadBytes + crypto::kTlsTagSize);
        sys.memory().writeSync(op.sbuf, op.plain.data(), op.plain.size());

        params[i].sbuf = op.sbuf;
        params[i].dbuf = op.dbuf;
        params[i].size = kPayloadBytes;
        params[i].ulp = smartdimm::UlpKind::kTlsEncrypt;
        params[i].message_id = (std::uint64_t{tid} << 32) | i;
        std::memcpy(params[i].key, op.key, sizeof(op.key));
        params[i].iv = op.iv;
    }

    unsigned submitted = 0;
    unsigned reaped = 0;
    bool verified_one = false;

    while (reaped < kOpsPerThread) {
        // Submit side: keep the ring as full as it will go, rotating
        // through the logical submitters that share this SWQ.
        while (submitted < kOpsPerThread) {
            const auto id = queue.submit(
                Descriptor::single(params[submitted + 1]),
                static_cast<std::uint16_t>(submitted % kSubmitters));
            if (!id) // ring full: go reap
                break;
            ASSERT_EQ(*id, submitted + 1u);
            ++submitted;
            shared.submits.inc();
        }

        // Reap side: drive the private simulation to idle, then poll.
        sys.events().run();
        for (const auto &rec : queue.poll()) {
            ASSERT_GE(rec.id, 1u);
            ASSERT_LE(rec.id, submitted);
            ASSERT_EQ(rec.status, CompletionStatus::kSuccess)
                << "thread " << tid << " descriptor " << rec.id;
            if (rec.recovered)
                shared.recovered.inc();
            ASSERT_EQ(rec.submitter, (rec.id - 1) % kSubmitters);
            shared.record_latency.sample(rec.completed - rec.submitted);
            InflightOp &op = book[rec.id];

            // Spot-check payload correctness on the first reap so a
            // race that corrupts data (not just metadata) fails loudly.
            if (!verified_one) {
                verified_one = true;
                sys.slot(0).engine.useSync(op.dbuf, kPageSize);
                const auto result = sys.slot(0).engine.readResult(
                    op.dbuf, kPayloadBytes + crypto::kTlsTagSize);
                crypto::GcmContext ctx(op.key,
                                       crypto::Aes::KeySize::k128);
                std::vector<std::uint8_t> expect(kPayloadBytes);
                const crypto::GcmTag tag = ctx.encrypt(
                    op.iv, op.plain.data(), op.plain.size(),
                    expect.data());
                ASSERT_EQ(0, std::memcmp(result.data(), expect.data(),
                                         kPayloadBytes))
                    << "thread " << tid << ": ciphertext mismatch";
                ASSERT_EQ(0,
                          std::memcmp(result.data() + kPayloadBytes,
                                      tag.data(), tag.size()))
                    << "thread " << tid << ": tag mismatch";
            }
            sys.slot(0).driver.release(op.sbuf, kPayloadBytes);
            sys.slot(0).driver.release(
                op.dbuf, kPayloadBytes + crypto::kTlsTagSize);
            ++reaped;
            shared.reaps.inc();
            my_reaps.inc();
        }
    }

    // Per-queue accounting balances exactly on the owning thread.
    EXPECT_EQ(queue.stats().submitted, kOpsPerThread);
    EXPECT_EQ(queue.stats().completions, kOpsPerThread);
    EXPECT_EQ(queue.stats().reaped, kOpsPerThread);
    EXPECT_EQ(queue.stats().rejected_submitter, 0u)
        << "a shared queue accepts every submitter";
    EXPECT_EQ(queue.occupancy(), 0u);
    EXPECT_GT(queue.peakOccupancy(), 1)
        << "the pipelined loop must actually overlap descriptors";
    shared.registry.remove(component);
}

TEST(QueueStress, EightThreadsPipelineSharedQueues)
{
    auto &tr = trace::tracer();
    tr.clear();
    tr.setMaxEvents(std::size_t{1} << 22);
    tr.enable(/*capture_ddr=*/false);

    SharedStats shared;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::atomic<unsigned> finished{0};
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &shared, &finished] {
            driverThread(t, shared);
            finished.fetch_add(1, std::memory_order_release);
        });
    }

    // Main thread hammers the shared registry while workers run.
    std::uint64_t collected_rows = 0;
    while (finished.load(std::memory_order_acquire) < kThreads) {
        for (const auto &[name, block] : shared.registry.collect())
            collected_rows += block.entries().size();
    }
    for (auto &t : threads)
        t.join();
    tr.disable();

    const std::uint64_t total = std::uint64_t{kThreads} * kOpsPerThread;
    EXPECT_EQ(shared.submits.value(), total);
    EXPECT_EQ(shared.reaps.value(), total);
    EXPECT_EQ(shared.recovered.value(), 0u)
        << "no fault plan: no record may need recovery";
    EXPECT_EQ(shared.record_latency.count(), total);
    EXPECT_GT(shared.record_latency.min(), 0u);
    EXPECT_EQ(shared.registry.size(), 0u);
    EXPECT_GT(collected_rows, 0u);

    // The queue opened one "tls" span per op at submit and closed
    // every one at record write — across all threads, concurrently,
    // through the one process-wide tracer.
    const auto spans = tr.spans();
    std::uint64_t tls_spans = 0;
    for (const auto &s : spans) {
        if (std::string_view(s.kind) != "tls")
            continue;
        ++tls_spans;
        EXPECT_GT(s.end, 0u) << "span " << s.id
                             << " never closed at record write";
    }
    EXPECT_EQ(tls_spans, total);

    tr.clear();
    tr.setMaxEvents(std::size_t{1} << 20); // restore default cap
}

} // namespace
