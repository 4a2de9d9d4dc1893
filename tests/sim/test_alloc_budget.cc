/**
 * @file
 * Heap-allocation budget of one steady-state CompCpy op. A counting
 * global operator new (this binary only) measures the allocations of
 * TLS-4K and Deflate-4K ops driven through a WorkQueue on a 1x1
 * Topology — submit, completion record, USE(dbuf), release — after
 * warm-up ops have grown every pool to its working size.
 *
 * The MemorySystem, CompCpyEngine and BufferDevice line paths keep
 * their continuations in SlotPools and allocate nothing per line. What
 * remains is per descriptor, per message or per page:
 *  - WorkQueue::submit: the shared Pending record, its copy of the
 *    Descriptor's op vector and its span vector (3);
 *  - Driver: free-list nodes when ranges split and are released (3);
 *  - BufferDevice::registerPage for TLS: the per-record
 *    TlsMessageState (with its IncrementalGcm), its message-map node
 *    and destination-page list, and the per-page TlsDsaJob (about 9);
 *  - Deflate only: the functional compressor behind DeflateDsaJob
 *    (hwDeflateCompress and its stored-block fallback), about 40 per
 *    4 KB page.
 * Those are left for a follow-up. Each budget is today's measured
 * count rounded up (a rare hash-map rehash adds a fraction), so one
 * more allocation per op fails the test.
 *
 * The event queue itself must allocate nothing once its lane rings,
 * heap and callback pool have grown to a steady load's working size.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <vector>

#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/queue.h"
#include "kernels/dispatch.h"
#include "sim/event_queue.h"
#include "smartdimm/deflate_dsa.h"
#include "topo/topology.h"

namespace {

std::uint64_t g_allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace sd;
using compcpy::CompCpyEngine;
using compcpy::CompCpyParams;
using compcpy::CompletionRecord;
using compcpy::Descriptor;
using compcpy::QueueMode;
using compcpy::WorkQueue;
using compcpy::WorkQueueConfig;

constexpr int kWarmupOps = 16;
constexpr int kMeasuredOps = 64;

/**
 * One op at a time: stage the payload, submit, USE(dbuf) on the
 * completion record, release both buffers. The callbacks capture only
 * `this`, as an application's would, so they allocate nothing.
 */
class ClosedLoop
{
  public:
    ClosedLoop(smartdimm::UlpKind ulp, std::size_t size)
        : slot_(topo_.slot(0u)),
          queue_(slot_.engine,
                 WorkQueueConfig{.id = 1, .mode = QueueMode::kShared})
    {
        params_.ulp = ulp;
        params_.size = size;
        dst_bytes_ = CompCpyEngine::destPages(params_) * kPageSize;
    }

    /** @return allocations per op over the measured ops. */
    double
    allocationsPerOp()
    {
        std::uint64_t before = 0;
        for (int i = 0; i < kWarmupOps + kMeasuredOps; ++i) {
            if (i == kWarmupOps)
                before = g_allocations;
            runOp(1 + static_cast<std::uint64_t>(i));
        }
        return static_cast<double>(g_allocations - before) / kMeasuredOps;
    }

  private:
    void
    runOp(std::uint64_t message_id)
    {
        rng_.fill(payload_.data(), payload_.size());
        rng_.fill(params_.key, sizeof(params_.key));
        params_.message_id = message_id;
        params_.sbuf = slot_.driver.alloc(kPageSize);
        params_.dbuf = slot_.driver.alloc(dst_bytes_);
        topo_.store().write(params_.sbuf, payload_.data(), kPageSize);

        used_ = false;
        const auto id = queue_.submit(
            Descriptor::single(params_), 0,
            [this](const CompletionRecord &) {
                slot_.engine.use(params_.dbuf, dst_bytes_,
                                 [this] { used_ = true; });
            });
        ASSERT_TRUE(id.has_value());
        while (!used_)
            topo_.events().run();
        slot_.driver.release(params_.sbuf, kPageSize);
        slot_.driver.release(params_.dbuf, dst_bytes_);
    }

    topo::Topology topo_;
    topo::Topology::Slot &slot_;
    WorkQueue queue_;
    Rng rng_{42};
    std::vector<std::uint8_t> payload_ = std::vector<std::uint8_t>(kPageSize);
    CompCpyParams params_;
    std::size_t dst_bytes_ = 0;
    bool used_ = false;
};

/**
 * The kernel tier decides how a GCM key expands (the table tier makes
 * one more allocation per message than native or scalar), so the
 * budgets are measured on the table tier, which every machine has.
 */
class AllocBudget : public ::testing::Test
{
  protected:
    void SetUp() override { kernels::forceTier(kernels::KernelTier::kTable); }
    void TearDown() override { kernels::clearForcedTier(); }
};

TEST_F(AllocBudget, SteadyStateTlsOp)
{
    const double per_op =
        ClosedLoop(smartdimm::UlpKind::kTlsEncrypt, kPageSize)
            .allocationsPerOp();
    RecordProperty("allocations_per_op", std::to_string(per_op));
    EXPECT_LE(per_op, 16.0); // measured 15.03
}

TEST_F(AllocBudget, SteadyStateDeflateOp)
{
    const double per_op =
        ClosedLoop(smartdimm::UlpKind::kDeflate,
                   smartdimm::kDeflateMaxPayload)
            .allocationsPerOp();
    RecordProperty("allocations_per_op", std::to_string(per_op));
    EXPECT_LE(per_op, 52.0); // measured 51.03
}

/** Reschedules itself @p delay ticks after each firing. */
struct Reschedule
{
    EventQueue *q;
    Tick delay;

    void operator()() const { q->scheduleIn(delay, Reschedule{*this}); }
};

TEST_F(AllocBudget, EventQueueSteadyStateAllocatesNothing)
{
    // A staged in-order batch of 1,500 arrivals (each fired arrival
    // re-stages itself behind the last, so the batch stays 1,500
    // deep) plus eight fixed-delay clocks: lane 0, the keyed lanes and
    // the heap all carry entries.
    constexpr int kStaged = 1500;
    constexpr Tick kGap = 400'000;
    constexpr Tick kClockDelays[] = {500,   1000,  2000,  4000,
                                     12500, 16250, 60000, 8000};
    constexpr std::size_t kLive = kStaged + std::size(kClockDelays);
    EventQueue q;
    for (int i = 1; i <= kStaged; ++i)
        q.schedule(i * kGap, Reschedule{&q, kStaged * kGap});
    for (const Tick delay : kClockDelays)
        q.schedule(delay, Reschedule{&q, delay});

    const auto runEvents = [&](std::uint64_t events) {
        const std::uint64_t target = q.executed() + events;
        while (q.executed() < target) {
            q.runUntil(q.now() + 100'000);
            ASSERT_EQ(q.pending(), kLive);
        }
    };
    runEvents(20'000); // warm-up: every ring, the heap and the pool
    const std::uint64_t before = g_allocations;
    runEvents(100'000);
    EXPECT_EQ(g_allocations - before, 0u);
}

} // namespace
