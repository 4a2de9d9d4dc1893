/**
 * @file
 * ALERT_N recovery path at the memory controller: a spurious-alert
 * storm (injected via kAlertStorm) or a persistently-unready device
 * must never abort the simulation. The controller retries in a fast
 * window, backs off exponentially, and past the retry budget completes
 * the read with MemStatus::kDegraded so the host can fall back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "cache/memory_system.h"
#include "fault/fault.h"
#include "mem/backing_store.h"
#include "mem/memory_controller.h"
#include "sim/event_queue.h"

namespace {

using namespace sd;
using mem::AddressMap;
using mem::DdrCommand;
using mem::DramGeometry;
using mem::MemoryController;
using mem::MemStatus;

/** Device that answers ALERT_N a configurable number of times. */
class AlertingDimm : public mem::DimmDevice
{
  public:
    explicit AlertingDimm(mem::BackingStore &store) : store_(store) {}

    void onCommand(const DdrCommand &) override {}

    mem::ReadResponse
    onRead(const DdrCommand &cmd, std::uint8_t *data) override
    {
        if (alerts_remaining_ > 0) {
            --alerts_remaining_;
            ++alerts_issued_;
            return mem::ReadResponse::kAlertN;
        }
        store_.read(cmd.addr, data, kCacheLineSize);
        return mem::ReadResponse::kOk;
    }

    void
    onWrite(const DdrCommand &cmd, const std::uint8_t *data) override
    {
        store_.write(cmd.addr, data, kCacheLineSize);
    }

    long alerts_remaining_ = 0;
    std::uint64_t alerts_issued_ = 0;

  private:
    mem::BackingStore &store_;
};

struct Rig
{
    EventQueue events;
    mem::BackingStore store;
    DramGeometry geometry;
    AddressMap map;
    AlertingDimm dimm;
    MemoryController mc;

    Rig()
        : geometry(makeGeometry()),
          map(geometry), dimm(store),
          mc(events, map, 0, dimm)
    {
    }

    static DramGeometry
    makeGeometry()
    {
        DramGeometry g;
        g.channels = 1;
        return g;
    }

    MemStatus
    readSync(Addr addr, std::uint8_t *data)
    {
        bool done = false;
        MemStatus status = MemStatus::kOk;
        mc.enqueueRead(addr, data, [&](Tick, MemStatus s) {
            status = s;
            done = true;
        });
        while (!done)
            events.run();
        return status;
    }

    void
    writeSync(Addr addr, const std::uint8_t *data)
    {
        bool done = false;
        mc.enqueueWrite(addr, data,
                        [&](Tick, MemStatus) { done = true; });
        while (!done)
            events.run();
    }
};

TEST(AlertRecovery, SpuriousStormRecoversWithCorrectData)
{
    Rig rig;
    fault::FaultPlan plan(1);
    plan.add(fault::Site::kAlertStorm, 0, /*count=*/3);
    rig.mc.setFaultPlan(&plan);

    std::uint8_t line[64];
    for (int i = 0; i < 64; ++i)
        line[i] = static_cast<std::uint8_t>(i * 3);
    rig.writeSync(0x8000, line);

    std::uint8_t back[64] = {};
    EXPECT_EQ(rig.readSync(0x8000, back), MemStatus::kOk);
    EXPECT_EQ(0, std::memcmp(line, back, 64));

    const auto &stats = rig.mc.stats();
    EXPECT_EQ(stats.spurious_alerts, 3u);
    EXPECT_EQ(stats.alert_retries, 3u);
    EXPECT_EQ(stats.degraded_reads, 0u);
    EXPECT_EQ(plan.injected(fault::Site::kAlertStorm), 3u);
}

TEST(AlertRecovery, RetryBudgetExhaustionCompletesDegraded)
{
    Rig rig;
    std::uint8_t line[64] = {0x77};
    rig.writeSync(0x9000, line);

    // Device never becomes ready within the budget.
    rig.dimm.alerts_remaining_ = 1'000'000;
    std::uint8_t back[64] = {};
    EXPECT_EQ(rig.readSync(0x9000, back), MemStatus::kDegraded);

    const auto &stats = rig.mc.stats();
    EXPECT_EQ(stats.degraded_reads, 1u);
    EXPECT_EQ(stats.alert_retries, mem::kAlertMaxRetries);
    // Attempts past the fast window back off; the final attempt
    // degrades instead of backing off.
    EXPECT_EQ(stats.alert_backoffs,
              mem::kAlertMaxRetries - mem::kAlertFastRetries - 1);
    // The degraded read still counts as a completed read.
    EXPECT_EQ(stats.reads, 1u);
}

TEST(AlertRecovery, BackoffDelaysRetriesBeyondFastWindow)
{
    // A storm that outlasts the retry budget: every attempt past the
    // fast window parks the read for its backoff before requeueing,
    // so the degraded completion can land no earlier than issue time
    // plus the sum of those waits — evidence the exponential backoff
    // actually waits, and by how much.
    Rig rig;
    rig.dimm.alerts_remaining_ = 1'000'000;
    const Tick issued = rig.events.now();
    std::uint8_t buf[64];
    bool done = false;
    Tick done_at = 0;
    MemStatus status = MemStatus::kOk;
    rig.mc.enqueueRead(0x4000, buf, [&](Tick at, MemStatus s) {
        done_at = at;
        status = s;
        done = true;
    });
    while (!done)
        rig.events.run();
    EXPECT_EQ(status, MemStatus::kDegraded);

    Cycles waits = 0;
    for (unsigned attempt = mem::kAlertFastRetries + 1;
         attempt < mem::kAlertMaxRetries; ++attempt) {
        const unsigned shift =
            std::min(attempt - mem::kAlertFastRetries - 1, 20u);
        waits += std::min(mem::kAlertBackoffBase << shift,
                          mem::kAlertBackoffCap);
    }
    EXPECT_GE(done_at, issued + waits * kDramClockPeriod);
}

TEST(AlertRecovery, ConservationAcrossGenuineAndSpuriousAlerts)
{
    Rig rig;
    fault::FaultPlan plan(2);
    plan.add(fault::Site::kAlertStorm, 0, /*count=*/2);
    rig.mc.setFaultPlan(&plan);

    std::uint8_t line[64] = {1};
    rig.writeSync(0xA000, line);
    rig.dimm.alerts_remaining_ = 3; // genuine alerts first

    std::uint8_t back[64] = {};
    EXPECT_EQ(rig.readSync(0xA000, back), MemStatus::kOk);

    // Every retry is attributable: device-issued ALERT_N plus injected
    // spurious alerts, nothing else.
    const auto &stats = rig.mc.stats();
    EXPECT_EQ(stats.spurious_alerts, 2u);
    EXPECT_EQ(stats.alert_retries,
              rig.dimm.alerts_issued_ + stats.spurious_alerts);
    EXPECT_EQ(stats.degraded_reads, 0u);
}

TEST(AlertRecovery, DegradedStatusSurfacesThroughMemorySystem)
{
    EventQueue events;
    mem::BackingStore store;
    DramGeometry g;
    g.channels = 1;
    AddressMap map(g);
    AlertingDimm dimm(store);
    cache::CacheConfig llc;
    llc.size_bytes = 1 << 20;
    cache::MemorySystem memory(events, map, llc, {&dimm});

    dimm.alerts_remaining_ = 1'000'000;
    std::uint8_t buf[64] = {};
    memory.readSync(0x10000, buf, sizeof(buf));

    EXPECT_GE(memory.degradedReads(), 1u);
    EXPECT_EQ(memory.degradedReads(),
              memory.controller(0).stats().degraded_reads);
}

} // namespace
