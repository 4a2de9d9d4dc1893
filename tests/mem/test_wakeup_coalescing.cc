/**
 * @file
 * Scheduler-wakeup coalescing regression test. Coalescing is purely a
 * simulator-speed optimisation: a wakeup already covered by a pending
 * pass at an earlier-or-equal tick is dropped instead of scheduling a
 * redundant event. The DDR command stream — every command's type,
 * bank coordinate, address and issue tick — must be bit-identical
 * with coalescing on or off; only the number of *executed events*
 * may differ (fewer when coalesced).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "mem/backing_store.h"
#include "mem/memory_controller.h"
#include "sim/event_queue.h"

namespace {

using namespace sd;
using mem::AddressMap;
using mem::DdrCommand;
using mem::DramGeometry;
using mem::MemoryController;

/** Plain DRAM backed by the store. */
class Dimm : public mem::DimmDevice
{
  public:
    explicit Dimm(mem::BackingStore &store) : store_(store) {}
    void onCommand(const DdrCommand &) override {}
    mem::ReadResponse
    onRead(const DdrCommand &cmd, std::uint8_t *data) override
    {
        store_.read(cmd.addr, data, kCacheLineSize);
        return mem::ReadResponse::kOk;
    }
    void
    onWrite(const DdrCommand &cmd, const std::uint8_t *data) override
    {
        store_.write(cmd.addr, data, kCacheLineSize);
    }

  private:
    mem::BackingStore &store_;
};

class Tracer : public mem::CommandObserver
{
  public:
    void observe(const DdrCommand &cmd) override { trace.push_back(cmd); }
    std::vector<DdrCommand> trace;
};

struct RunResult
{
    std::vector<DdrCommand> trace;
    std::uint64_t executed = 0;
    std::uint64_t sched_passes = 0;
    std::uint64_t wakeups_requested = 0;
    std::uint64_t wakeups_coalesced = 0;
    Tick final_tick = 0;
};

/**
 * A deterministic workload designed to provoke redundant wakeups:
 * bursts of reads and writes across several banks and rows, arriving
 * both back-to-back (many enqueues before the first pass runs) and
 * staggered through time (enqueues landing while a pass is pending).
 */
RunResult
runWorkload(bool coalesce)
{
    EventQueue events;
    mem::BackingStore store;
    DramGeometry geometry;
    geometry.channels = 1;
    AddressMap map(geometry);
    Dimm dimm(store);
    MemoryController mc(events, map, 0, dimm);
    mc.setCoalesceWakeups(coalesce);
    Tracer tracer;
    mc.setObserver(&tracer);

    const Addr bank_stride = mem::kRowBytes;
    const Addr row_stride = mem::kRowBytes * geometry.totalBanks();
    Rng rng(7);
    std::vector<std::uint8_t> line(kCacheLineSize);
    rng.fill(line.data(), line.size());

    int outstanding = 0;
    std::vector<std::uint8_t> bufs(kCacheLineSize * 64);

    // Burst 1: back-to-back enqueues (row hits, conflicts and bank
    // switches all present).
    for (int i = 0; i < 16; ++i) {
        const Addr addr = (i % 4) * bank_stride + (i % 2) * row_stride +
                          (i / 4) * kCacheLineSize;
        ++outstanding;
        if (i % 3 == 0)
            mc.enqueueWrite(addr, line.data(),
                            [&](Tick, mem::MemStatus) { --outstanding; });
        else
            mc.enqueueRead(addr, bufs.data() + (i % 64) * kCacheLineSize,
                           [&](Tick, mem::MemStatus) { --outstanding; });
    }

    // Burst 2: staggered arrivals landing while passes are pending.
    for (int i = 0; i < 24; ++i) {
        const Tick at = 1'000 + static_cast<Tick>(i) * 700;
        events.schedule(at, [&, i] {
            const Addr addr = (i % 8) * bank_stride +
                              ((i / 8) % 3) * row_stride +
                              (i % 16) * kCacheLineSize;
            ++outstanding;
            if (i % 4 == 1)
                mc.enqueueWrite(addr, line.data(), [&](Tick, mem::MemStatus) {
                    --outstanding;
                });
            else
                mc.enqueueRead(addr,
                               bufs.data() + (i % 64) * kCacheLineSize,
                               [&](Tick, mem::MemStatus) { --outstanding; });
        });
    }

    events.run();
    EXPECT_EQ(outstanding, 0);
    EXPECT_EQ(mc.pending(), 0u);

    RunResult result;
    result.trace = tracer.trace;
    result.executed = events.executed();
    result.sched_passes = mc.stats().sched_passes;
    result.wakeups_requested = mc.stats().wakeups_requested;
    result.wakeups_coalesced = mc.stats().wakeups_coalesced;
    result.final_tick = events.now();
    return result;
}

TEST(WakeupCoalescing, CommandStreamIsIdentical)
{
    const RunResult on = runWorkload(true);
    const RunResult off = runWorkload(false);

    ASSERT_EQ(on.trace.size(), off.trace.size());
    for (std::size_t i = 0; i < on.trace.size(); ++i) {
        const DdrCommand &a = on.trace[i];
        const DdrCommand &b = off.trace[i];
        EXPECT_EQ(a.type, b.type) << "command " << i;
        EXPECT_EQ(a.addr, b.addr) << "command " << i;
        EXPECT_EQ(a.issue, b.issue) << "command " << i;
        EXPECT_EQ(a.slot, b.slot) << "command " << i;
        EXPECT_EQ(a.coord.channel, b.coord.channel) << "command " << i;
        EXPECT_EQ(a.coord.rank, b.coord.rank) << "command " << i;
        EXPECT_EQ(a.coord.bank_group, b.coord.bank_group) << "command " << i;
        EXPECT_EQ(a.coord.bank, b.coord.bank) << "command " << i;
        EXPECT_EQ(a.coord.row, b.coord.row) << "command " << i;
    }
    EXPECT_EQ(on.final_tick, off.final_tick);
}

TEST(WakeupCoalescing, CoalescingExecutesFewerEvents)
{
    const RunResult on = runWorkload(true);
    const RunResult off = runWorkload(false);

    // The workload provokes wakeups already covered by a pending
    // pass; coalesced mode must actually drop some...
    EXPECT_GT(on.wakeups_coalesced, 0u);
    // ...which shows up as strictly fewer scheduler passes and no
    // more executed events than the uncoalesced run.
    EXPECT_LT(on.sched_passes, off.sched_passes);
    EXPECT_LE(on.executed, off.executed);
    // Wakeup accounting is conserved: every request was coalesced,
    // ran a pass, or was superseded by an earlier wakeup (which ran
    // instead) — so passes + coalesced never exceeds requests.
    EXPECT_GE(on.wakeups_requested,
              on.sched_passes + on.wakeups_coalesced);
    // Uncoalesced mode never drops a wakeup: one pass per request.
    EXPECT_EQ(off.wakeups_coalesced, 0u);
    EXPECT_EQ(off.sched_passes, off.wakeups_requested);
}

} // namespace
