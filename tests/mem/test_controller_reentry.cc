/**
 * @file
 * Deep-queue and re-entrancy test for the memory controller's request
 * pool. A device that enqueues from inside onRead(), completion
 * callbacks that enqueue, and ALERT_N on selected lines (fast window,
 * backoff window and an exhausted budget) all run against more than
 * 256 outstanding requests. Every callback must fire exactly once with
 * the right status and data, the controller must drain to zero, and
 * the DDR command stream must match the digest recorded for the
 * deque-based controller this pool replaced.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

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

using Line = std::array<std::uint8_t, kCacheLineSize>;

constexpr int kReads = 224;     ///< initial reads
constexpr int kWrites = 96;     ///< initial writes (320 outstanding)
constexpr int kBurst = 100;     ///< reads enqueued by the first onRead()
constexpr int kMaxRequests = 1024;
constexpr unsigned kForever = std::numeric_limits<unsigned>::max();

/** Deterministic content of @p addr before the run. */
Line
pattern(Addr addr, std::uint8_t salt)
{
    Line line{};
    for (std::size_t k = 0; k < line.size(); ++k)
        line[k] = static_cast<std::uint8_t>((addr >> 6) * 31 + k * 7 + salt);
    return line;
}

/**
 * FNV-1a over every field of every command, in observation order.
 */
class Digest : public mem::CommandObserver
{
  public:
    void
    observe(const DdrCommand &cmd) override
    {
        ++commands;
        mix(static_cast<std::uint64_t>(cmd.type));
        mix(cmd.addr);
        mix(cmd.issue);
        mix(cmd.slot);
        mix(cmd.coord.channel);
        mix(cmd.coord.rank);
        mix(cmd.coord.bank_group);
        mix(cmd.coord.bank);
        mix(cmd.coord.row);
        mix(cmd.coord.col);
    }

    std::uint64_t value = 1469598103934665603ull;
    std::uint64_t commands = 0;

  private:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            value ^= (v >> (8 * i)) & 0xff;
            value *= 1099511628211ull;
        }
    }
};

struct Expect
{
    Addr addr = 0;
    bool is_write = false;
    MemStatus status = MemStatus::kOk;
    Line data{}; ///< expected read data / written data
    int fired = 0;
    MemStatus got = MemStatus::kOk;
};

/** The whole run: device, controller and the bookkeeping callbacks. */
class Reentry : public mem::DimmDevice
{
  public:
    Reentry()
        : map_(geometry()),
          mc_(events_, map_, 0, *this),
          bufs_(kMaxRequests)
    {
        mc_.setObserver(&digest_);
        expect_.reserve(kMaxRequests);
    }

    static DramGeometry
    geometry()
    {
        DramGeometry g;
        g.channels = 1;
        return g;
    }

    /** Line @p i of region @p region: 8 banks x 3 rows x N columns. */
    static Addr
    lineAddr(int region, int i)
    {
        const DramGeometry g = geometry();
        const Addr bank_stride = mem::kRowBytes;
        const Addr row_stride = mem::kRowBytes * g.totalBanks();
        const auto u = static_cast<Addr>(i);
        return static_cast<Addr>(region) * 4 * row_stride +
               (u % 8) * bank_stride + ((u / 8) % 3) * row_stride +
               (u / 24) * kCacheLineSize;
    }

    void
    run()
    {
        // Region 0 is read with ALERT_N on selected lines, region 1 is
        // written, regions 2 and 3 take the re-entrant reads/writes.
        for (int i = 0; i < kReads + kBurst; ++i) {
            const int region = i < kReads ? 0 : 2;
            const int idx = i < kReads ? i : i - kReads;
            const Addr addr = lineAddr(region, idx);
            const Line line = pattern(addr, 0);
            store_.write(addr, line.data(), line.size());
        }
        for (int i = 0; i < kReads; ++i) {
            const Addr addr = lineAddr(0, i);
            if (i % 29 == 0)
                alerts_[addr] = kForever; // budget exhausted: degraded
            else if (i % 11 == 5)
                alerts_[addr] = 12; // past the fast window: backoff
            else if (i % 7 == 3)
                alerts_[addr] = 3; // fast retries only
        }

        for (int i = 0; i < kReads; ++i) {
            const Addr addr = lineAddr(0, i);
            read(addr, alerts_.count(addr) && alerts_[addr] == kForever
                           ? MemStatus::kDegraded
                           : MemStatus::kOk,
                 /*chain=*/i % 8 == 0);
        }
        for (int j = 0; j < kWrites; ++j)
            write(lineAddr(1, j), pattern(lineAddr(1, j), 1));
        EXPECT_EQ(mc_.pending(), static_cast<std::size_t>(kReads + kWrites));

        events_.run();
    }

    // DimmDevice ------------------------------------------------------
    void onCommand(const DdrCommand &) override {}

    mem::ReadResponse
    onRead(const DdrCommand &cmd, std::uint8_t *data) override
    {
        auto it = alerts_.find(cmd.addr);
        if (it != alerts_.end() && it->second > 0) {
            if (it->second != kForever)
                --it->second;
            return mem::ReadResponse::kAlertN;
        }
        store_.read(cmd.addr, data, kCacheLineSize);
        ++good_reads_;
        if (good_reads_ == 1) {
            // Re-entrant burst from inside the data phase: more reads
            // than the pool has free slots, so it must grow here.
            for (int i = 0; i < kBurst; ++i)
                read(lineAddr(2, i), MemStatus::kOk, /*chain=*/false);
        } else if (good_reads_ % 16 == 0) {
            const Addr addr = lineAddr(3, spawned_writes_++);
            write(addr, pattern(addr, 3));
        }
        return mem::ReadResponse::kOk;
    }

    void
    onWrite(const DdrCommand &cmd, const std::uint8_t *data) override
    {
        store_.write(cmd.addr, data, kCacheLineSize);
    }

    // Bookkeeping -----------------------------------------------------
    void
    read(Addr addr, MemStatus status, bool chain)
    {
        const std::size_t id = expect_.size();
        ASSERT_LT(id, static_cast<std::size_t>(kMaxRequests));
        Expect e;
        e.addr = addr;
        e.status = status;
        e.data = pattern(addr, 0);
        expect_.push_back(e);
        mc_.enqueueRead(addr, bufs_[id].data(),
                        [this, id, chain](Tick, MemStatus got) {
            done(id, got);
            if (chain) {
                // Completion re-entry: the slot just freed is reused.
                read(lineAddr(2, chained_++ % kBurst), MemStatus::kOk,
                     /*chain=*/false);
            }
        });
    }

    void
    write(Addr addr, const Line &line)
    {
        const std::size_t id = expect_.size();
        ASSERT_LT(id, static_cast<std::size_t>(kMaxRequests));
        Expect e;
        e.addr = addr;
        e.is_write = true;
        e.data = line;
        expect_.push_back(e);
        mc_.enqueueWrite(addr, line.data(),
                         [this, id](Tick, MemStatus got) { done(id, got); });
    }

    void
    done(std::size_t id, MemStatus got)
    {
        ++expect_[id].fired;
        expect_[id].got = got;
        peak_pending_ = std::max(peak_pending_, mc_.pending());
    }

    EventQueue events_;
    mem::BackingStore store_;
    AddressMap map_;
    MemoryController mc_;
    Digest digest_;
    std::vector<Line> bufs_;
    std::vector<Expect> expect_;
    std::map<Addr, unsigned> alerts_;
    int good_reads_ = 0;
    int spawned_writes_ = 0;
    int chained_ = 0;
    std::size_t peak_pending_ = 0;
};

TEST(ControllerReentry, DeepQueueWithReentrantEnqueueAndAlerts)
{
    Reentry rig;
    rig.run();

    const auto &stats = rig.mc_.stats();
    int degraded = 0;
    for (std::size_t id = 0; id < rig.expect_.size(); ++id) {
        const Expect &e = rig.expect_[id];
        ASSERT_EQ(e.fired, 1) << "request " << id;
        EXPECT_EQ(e.got, e.status) << "request " << id;
        degraded += e.got == MemStatus::kDegraded;
        if (e.is_write) {
            Line stored{};
            rig.store_.read(e.addr, stored.data(), stored.size());
            EXPECT_EQ(stored, e.data) << "write " << id;
        } else if (e.status == MemStatus::kOk) {
            EXPECT_EQ(rig.bufs_[id], e.data) << "read " << id;
        }
    }
    EXPECT_EQ(rig.mc_.pending(), 0u);
    EXPECT_EQ(rig.events_.pending(), 0u);

    // Every path ran: the re-entrant burst, chained and spawned
    // requests, fast and backoff retries, and exhausted budgets.
    EXPECT_EQ(rig.expect_.size(),
              static_cast<std::size_t>(kReads + kWrites + kBurst +
                                       rig.chained_ + rig.spawned_writes_));
    EXPECT_EQ(rig.chained_, kReads / 8);
    EXPECT_GT(rig.spawned_writes_, 0);
    EXPECT_GT(stats.alert_retries, 0u);
    EXPECT_GT(stats.alert_backoffs, 0u);
    EXPECT_EQ(stats.degraded_reads, static_cast<std::uint64_t>(degraded));
    EXPECT_EQ(degraded, (kReads + 28) / 29);
    // More requests were live at once than the 320 enqueued up front.
    EXPECT_GT(rig.peak_pending_, static_cast<std::size_t>(kReads + kWrites));

    // Recorded from the deque-based controller: the pool must not
    // change a single command, tick or event.
    EXPECT_EQ(rig.digest_.commands, 1501u);
    EXPECT_EQ(rig.digest_.value, 0x26193f396acade68ull);
    EXPECT_EQ(rig.events_.executed(), 3331u);
}

} // namespace
