/**
 * @file
 * Multi-threaded CompCpy stress: N driver threads each own an
 * independent simulated system (event queue, LLC, channel, SmartDIMM)
 * and push a stream of TLS CompCpy offloads through it, all while
 * recording into the ONE process-wide tracer.
 *
 * The suite is the TSan gate for the trace layer: run it under
 * -fsanitize=thread and the Tracer's mutex/atomic contract gets
 * exercised with real contention. Statistics are single-owner, so
 * each thread keeps its own tally; after the join the tallies are
 * registered in one StatsRegistry and must balance exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
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
    return spec;
}

/** What one driver thread counted, read only after the join. */
struct ThreadTally
{
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    LogHistogram op_latency;
};

/** One driver thread: kOpsPerThread TLS offloads on a private rig. */
void
driverThread(unsigned tid, ThreadTally &tally)
{
    topo::Topology sys(systemSpec());
    Rng rng(0x1000 + tid);

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
        sys.slot(0).queue.run(params);
        sys.slot(0).engine.useSync(
            dbuf, divCeil(kPayloadBytes + crypto::kTlsTagSize, kPageSize) *
                      kPageSize);
        tally.op_latency.sample(sys.events().now() - begin);
        ++tally.ops;
        tally.bytes += kPayloadBytes;

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
}

TEST(ParallelCompCpy, EightDriverThreadsShareTracerAndRegistry)
{
    auto &tr = trace::tracer();
    tr.clear();
    tr.setMaxEvents(std::size_t{1} << 22);
    tr.enable(/*capture_ddr=*/false);

    std::vector<ThreadTally> tallies(kThreads);

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([t, &tallies] { driverThread(t, tallies[t]); });
    for (auto &t : threads)
        t.join();

    tr.disable();

    // Registered after the join: the registry, like each tally, has
    // one owner, the main thread.
    trace::StatsRegistry registry;
    for (unsigned t = 0; t < kThreads; ++t) {
        registry.add("stress.t" + std::to_string(t),
                     [&tally = tallies[t]](trace::StatsBlock &b) {
            b.scalar("ops", static_cast<double>(tally.ops));
            b.scalar("bytes", static_cast<double>(tally.bytes));
            b.hist("op_latency", tally.op_latency);
        });
    }
    const auto rows = registry.collect();
    ASSERT_EQ(rows.size(), kThreads);

    // Exact accounting across all threads.
    std::map<std::string, double> sums;
    for (const auto &[name, block] : rows)
        for (const auto &[key, value] : block.entries())
            sums[key] += value;
    const std::uint64_t total = std::uint64_t{kThreads} * kOpsPerThread;
    EXPECT_EQ(sums["ops"], static_cast<double>(total));
    EXPECT_EQ(sums["bytes"], static_cast<double>(total * kPayloadBytes));
    EXPECT_EQ(sums["op_latency.count"], static_cast<double>(total));
    for (const ThreadTally &tally : tallies) {
        EXPECT_GT(tally.op_latency.min(), 0u);
        EXPECT_GE(tally.op_latency.max(), tally.op_latency.min());
    }

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
