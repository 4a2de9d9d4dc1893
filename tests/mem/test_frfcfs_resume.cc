/**
 * @file
 * The FR-FCFS scan resumes past the queued keys an earlier scan found
 * to miss, and resets on every ACT. That must pick exactly what a full
 * scan picks. A seeded random read/write stream over a few banks and
 * rows crosses the write-drain watermarks, forces row conflicts from
 * both queues and re-queues reads through ALERT_N retries; its DDR
 * command stream must match the digest recorded with the full scan,
 * with scheduler-wakeup coalescing on and off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
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

constexpr int kRequests = 1500;
constexpr unsigned kBanks = 4;
constexpr unsigned kRows = 3;

/** Plain DRAM that asserts ALERT_N on the first reads of some lines. */
class Dimm : public mem::DimmDevice
{
  public:
    explicit Dimm(mem::BackingStore &store) : store_(store) {}

    void onCommand(const DdrCommand &) override {}

    mem::ReadResponse
    onRead(const DdrCommand &cmd, std::uint8_t *data) override
    {
        // One line in five alerts on its first two reads.
        if ((cmd.addr / kCacheLineSize) % 5 == 0 && alerts_[cmd.addr]++ < 2)
            return mem::ReadResponse::kAlertN;
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
    std::map<Addr, int> alerts_;
};

/** FNV-1a over every field of every command, in observation order. */
class Digest : public mem::CommandObserver
{
  public:
    void
    observe(const DdrCommand &cmd) override
    {
        ++commands;
        for (std::uint64_t v :
             {std::uint64_t{static_cast<std::uint8_t>(cmd.type)},
              std::uint64_t{cmd.addr}, std::uint64_t{cmd.issue},
              std::uint64_t{cmd.slot}, std::uint64_t{cmd.coord.channel},
              std::uint64_t{cmd.coord.rank},
              std::uint64_t{cmd.coord.bank_group},
              std::uint64_t{cmd.coord.bank}, std::uint64_t{cmd.coord.row},
              std::uint64_t{cmd.coord.col}})
            for (int i = 0; i < 8; ++i) {
                value ^= (v >> (8 * i)) & 0xff;
                value *= 1099511628211ull;
            }
    }

    std::uint64_t value = 1469598103934665603ull;
    std::uint64_t commands = 0;
};

struct RunResult
{
    std::uint64_t digest = 0;
    std::uint64_t commands = 0;
    mem::ControllerStats stats;
    unsigned peak_writes = 0; ///< most writes enqueued and not yet done
};

RunResult
runStream(bool coalesce)
{
    EventQueue events;
    mem::BackingStore store;
    DramGeometry geometry;
    geometry.channels = 1;
    AddressMap map(geometry);
    Dimm dimm(store);
    MemoryController mc(events, map, 0, dimm);
    mc.setCoalesceWakeups(coalesce);
    Digest digest;
    mc.setObserver(&digest);

    const Addr bank_stride = mem::kRowBytes;
    const Addr row_stride = mem::kRowBytes * geometry.totalBanks();
    Rng rng(29);
    std::vector<std::uint8_t> line(kCacheLineSize);
    rng.fill(line.data(), line.size());
    std::vector<std::uint8_t> bufs(kCacheLineSize * kRequests);

    int completed = 0;
    unsigned writes = 0;
    unsigned peak_writes = 0;
    Tick at = 0;
    for (int i = 0; i < kRequests; ++i) {
        const Addr addr = rng.below(kBanks) * bank_stride +
                          rng.below(kRows) * row_stride +
                          rng.below(16) * kCacheLineSize;
        // Write-heavy phases fill the write queue past the high
        // watermark; read-heavy ones let it drain below the low one.
        const bool write_phase = (i / 200) % 2 == 1;
        const bool is_write = rng.chance(write_phase ? 0.85 : 0.2);
        // Bursts of back-to-back arrivals, then gaps.
        if (rng.chance(0.1))
            at += rng.below(4000);
        std::uint8_t *buf = bufs.data() + i * kCacheLineSize;
        events.schedule(at, [&, addr, is_write, buf] {
            if (is_write) {
                peak_writes = std::max(peak_writes, ++writes);
                mc.enqueueWrite(addr, line.data(),
                                [&](Tick, mem::MemStatus) {
                                    --writes;
                                    ++completed;
                                });
            } else
                mc.enqueueRead(addr, buf,
                               [&](Tick, mem::MemStatus) { ++completed; });
        });
    }
    events.run();
    EXPECT_EQ(completed, kRequests);
    EXPECT_EQ(mc.pending(), 0u);
    return {digest.value, digest.commands, mc.stats(), peak_writes};
}

TEST(FrFcfsResume, CommandStreamMatchesTheFullScan)
{
    const RunResult on = runStream(/*coalesce=*/true);
    // The stream exercises what the resume point must survive.
    EXPECT_GT(on.stats.row_conflicts, 0u);
    EXPECT_GT(on.stats.alert_retries, 0u);
    EXPECT_GT(on.stats.turnarounds, 0u);
    EXPECT_GT(on.stats.row_hits, 0u);
    // Past the high watermark by more than the writes a drain can have
    // issued but not finished.
    EXPECT_GT(on.peak_writes, mem::kWriteHighWatermark + 8);
    // Recorded with a scan of every queued key on every pick.
    EXPECT_EQ(on.commands, 1614u);
    EXPECT_EQ(on.digest, 0xce21123f87ad77cdull);

    const RunResult off = runStream(/*coalesce=*/false);
    EXPECT_EQ(off.commands, on.commands);
    EXPECT_EQ(off.digest, on.digest);
}

} // namespace
