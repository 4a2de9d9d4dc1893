/**
 * @file
 * Multi-threaded CompCpy stress: N driver threads each own an
 * independent simulated system (event queue, LLC, channel, SmartDIMM)
 * and push a stream of TLS CompCpy offloads through it, all while
 * recording into the ONE process-wide tracer and one shared
 * StatsRegistry, exactly the sharing pattern the paper's adaptive
 * stack assumes (many application threads, per-message CPU/DIMM
 * routing, shared DIMM bookkeeping).
 *
 * The suite is the TSan gate for the trace layer: run it under
 * -fsanitize=thread and every mutex/atomic contract in
 * src/trace + src/common/stats.h gets exercised with real contention.
 * It also pins down the accounting: per-thread work summed over the
 * shared counters must balance exactly after the join.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "common/stats.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "crypto/tls_record.h"
#include "kernels/dispatch.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "topo/topology.h"
#include "trace/trace.h"

namespace {

using namespace sd;

constexpr unsigned kThreads = 8;
constexpr unsigned kOpsPerThread = 1000;
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
    Counter ops;
    Counter bytes;
    LogHistogram op_latency;
    trace::StatsRegistry registry;
};

/** One driver thread: kOpsPerThread TLS offloads on a private rig. */
void
driverThread(unsigned tid, SharedStats &shared)
{
    topo::Topology sys(systemSpec());
    Rng rng(0x1000 + tid);

    // Per-thread op counter surfaced through the shared registry so
    // the main thread can collect() concurrently (Counter reads are
    // atomic; nothing else in the provider touches racing state).
    Counter my_ops;
    const std::string component = "stress.t" + std::to_string(tid);
    shared.registry.add(component, [&my_ops](trace::StatsBlock &b) {
        b.scalar("ops", static_cast<double>(my_ops.value()));
    });

    // The whole batch is one synchronous traced unit of work.
    auto &tr = trace::tracer();
    const std::uint32_t batch_span =
        tr.beginSpan("stress", 0, 0, kOpsPerThread, sys.events().now());

    std::vector<std::uint8_t> plain(kPayloadBytes);
    std::uint8_t key[16];
    crypto::GcmIv iv{};

    for (unsigned op = 0; op < kOpsPerThread; ++op) {
        rng.fill(plain.data(), plain.size());
        rng.fill(key, sizeof(key));
        rng.fill(iv.data(), iv.size());

        const Addr sbuf = sys.slot(0).driver.alloc(kPayloadBytes);
        const Addr dbuf =
            sys.slot(0).driver.alloc(kPayloadBytes + crypto::kTlsTagSize);
        sys.memory().writeSync(sbuf, plain.data(), plain.size());

        compcpy::CompCpyParams params;
        params.sbuf = sbuf;
        params.dbuf = dbuf;
        params.size = kPayloadBytes;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = (std::uint64_t{tid} << 32) | op;
        std::memcpy(params.key, key, sizeof(key));
        params.iv = iv;

        const Tick begin = sys.events().now();
        sys.slot(0).engine.run(params);
        sys.slot(0).engine.useSync(
            dbuf, divCeil(kPayloadBytes + crypto::kTlsTagSize, kPageSize) *
                      kPageSize);
        shared.op_latency.sample(sys.events().now() - begin);
        shared.ops.inc();
        shared.bytes.inc(kPayloadBytes);
        my_ops.inc();

        // Spot-check correctness against the software GCM on the
        // first op so a synchronisation bug that corrupts payloads
        // (not just metadata) also fails loudly.
        if (op == 0) {
            const auto result = sys.slot(0).engine.readResult(
                dbuf, kPayloadBytes + crypto::kTlsTagSize);
            crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
            std::vector<std::uint8_t> expect(kPayloadBytes);
            const crypto::GcmTag tag =
                ctx.encrypt(iv, plain.data(), plain.size(), expect.data());
            ASSERT_EQ(0, std::memcmp(result.data(), expect.data(),
                                     kPayloadBytes))
                << "thread " << tid << ": ciphertext mismatch";
            ASSERT_EQ(0, std::memcmp(result.data() + kPayloadBytes,
                                     tag.data(), tag.size()))
                << "thread " << tid << ": tag mismatch";
        }

        sys.slot(0).driver.release(sbuf, kPayloadBytes);
        sys.slot(0).driver.release(dbuf, kPayloadBytes + crypto::kTlsTagSize);
    }

    tr.endSpan(batch_span, sys.events().now());
    shared.registry.remove(component);
}

TEST(ParallelCompCpy, EightDriverThreadsShareTracerAndRegistry)
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
            // Incremented even when a fatal gtest assertion bails out
            // of driverThread early, so the main loop below can't spin
            // forever on a failing run.
            finished.fetch_add(1, std::memory_order_release);
        });
    }

    // Main thread hammers the shared registry while workers run:
    // collect() snapshots providers under the lock and reads only
    // atomic per-thread counters.
    std::uint64_t collected_rows = 0;
    while (finished.load(std::memory_order_acquire) < kThreads) {
        for (const auto &[name, block] : shared.registry.collect())
            collected_rows += block.entries().size();
        std::ostringstream sink;
        shared.registry.dumpJson(sink);
    }

    for (auto &t : threads)
        t.join();

    tr.disable();

    const std::uint64_t total = std::uint64_t{kThreads} * kOpsPerThread;

    // Exact accounting across all threads.
    EXPECT_EQ(shared.ops.value(), total);
    EXPECT_EQ(shared.bytes.value(), total * kPayloadBytes);
    EXPECT_EQ(shared.op_latency.count(), total);
    EXPECT_GT(shared.op_latency.min(), 0u);
    EXPECT_GE(shared.op_latency.max(), shared.op_latency.min());

    // Every op opened an engine span; every thread opened one batch
    // span and closed it with endSpan().
    const auto spans = tr.spans();
    std::uint64_t tls_spans = 0;
    std::uint64_t batch_spans = 0;
    for (const auto &s : spans) {
        if (std::string_view(s.kind) == "tls")
            ++tls_spans;
        else if (std::string_view(s.kind) == "stress") {
            ++batch_spans;
            EXPECT_GT(s.end, 0u) << "batch span never closed";
        }
    }
    EXPECT_EQ(tls_spans, total);
    EXPECT_EQ(batch_spans, kThreads);

    // The registry drained: every thread removed its provider.
    EXPECT_EQ(shared.registry.size(), 0u);
    EXPECT_GT(collected_rows, 0u);

    // Span ids must be dense and unique (mutex-serialised allocation).
    std::vector<bool> seen(spans.size() + 1, false);
    for (const auto &s : spans) {
        ASSERT_GE(s.id, 1u);
        ASSERT_LE(s.id, spans.size());
        EXPECT_FALSE(seen[s.id]) << "duplicate span id " << s.id;
        seen[s.id] = true;
    }

    tr.clear();
    tr.setMaxEvents(std::size_t{1} << 20); // restore default cap
}

TEST(ParallelDispatch, ActiveTierRacesAreBenign)
{
    kernels::clearForcedTier();
    std::vector<std::thread> threads;
    std::atomic<bool> stop{false};

    // Readers: activeTier() must always return a valid, supported tier.
    for (unsigned t = 0; t < 6; ++t) {
        threads.emplace_back([&stop] {
            while (!stop.load(std::memory_order_relaxed)) {
                const auto tier = kernels::activeTier();
                const auto tiers = kernels::availableTiers();
                ASSERT_NE(std::find(tiers.begin(), tiers.end(), tier),
                          tiers.end())
                    << "activeTier returned an unavailable tier";
            }
        });
    }
    // Writers: toggle the override between always-compiled tiers.
    for (unsigned t = 0; t < 2; ++t) {
        threads.emplace_back([&stop, t] {
            for (unsigned i = 0; i < 20000; ++i) {
                kernels::forceTier(t == 0 ? kernels::KernelTier::kScalar
                                          : kernels::KernelTier::kTable);
                kernels::clearForcedTier();
            }
            stop.store(true, std::memory_order_relaxed);
        });
    }
    for (auto &t : threads)
        t.join();
    kernels::clearForcedTier();
}

} // namespace
