/**
 * @file
 * Memory controller: data round trips, FR-FCFS row hits, write
 * batching (the rd->wr slack SmartDIMM depends on), ALERT_N retry,
 * and command-trace observation.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "mem/backing_store.h"
#include "mem/memory_controller.h"
#include "sim/event_queue.h"

namespace {

using namespace sd;
using mem::AddressMap;
using mem::ControllerConfig;
using mem::DdrCommand;
using mem::DdrCommandType;
using mem::DramGeometry;
using mem::DramTiming;
using mem::MemoryController;

/** Device that delays read-readiness to exercise ALERT_N. */
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

    int alerts_remaining_ = 0;

  private:
    mem::BackingStore &store_;
};

/** Records every command with its issue tick. */
class Tracer : public mem::CommandObserver
{
  public:
    void observe(const DdrCommand &cmd) override { trace.push_back(cmd); }
    std::vector<DdrCommand> trace;
};

struct Rig
{
    EventQueue events;
    mem::BackingStore store;
    DramGeometry geometry;
    AddressMap map;
    AlertingDimm dimm;
    MemoryController mc;
    Tracer tracer;

    Rig()
        : geometry(makeGeometry()), map(geometry),
          dimm(store), mc(events, map, DramTiming{}, ControllerConfig{},
                          0, dimm)
    {
        mc.setObserver(&tracer);
    }

    static DramGeometry
    makeGeometry()
    {
        DramGeometry g;
        g.channels = 1;
        return g;
    }

    void
    writeSync(Addr addr, const std::uint8_t *data)
    {
        bool done = false;
        mc.enqueueWrite(addr, data,
                        [&](Tick, mem::MemStatus) { done = true; });
        while (!done)
            events.run();
    }

    void
    readSync(Addr addr, std::uint8_t *data)
    {
        bool done = false;
        mc.enqueueRead(addr, data,
                       [&](Tick, mem::MemStatus) { done = true; });
        while (!done)
            events.run();
    }
};

TEST(MemoryController, WriteThenReadRoundTrip)
{
    Rig rig;
    Rng rng(1);
    std::uint8_t line[64];
    rng.fill(line, 64);
    rig.writeSync(0x10000, line);

    std::uint8_t back[64] = {};
    rig.readSync(0x10000, back);
    EXPECT_EQ(0, std::memcmp(line, back, 64));
}

TEST(MemoryController, ManyLinesRoundTrip)
{
    Rig rig;
    Rng rng(2);
    std::vector<std::uint8_t> data(64 * 256);
    rng.fill(data.data(), data.size());

    for (int i = 0; i < 256; ++i)
        rig.writeSync(0x40000 + i * 64ull, data.data() + i * 64);
    std::vector<std::uint8_t> back(data.size());
    for (int i = 0; i < 256; ++i)
        rig.readSync(0x40000 + i * 64ull, back.data() + i * 64);
    EXPECT_EQ(back, data);
}

TEST(MemoryController, SequentialReadsAreRowHits)
{
    Rig rig;
    std::uint8_t buf[64];
    // 32 sequential lines in one row (8 KB row = 128 lines).
    for (int i = 0; i < 32; ++i)
        rig.readSync(i * 64ull, buf);
    const auto &stats = rig.mc.stats();
    EXPECT_EQ(stats.reads, 32u);
    EXPECT_GE(stats.row_hits, 31u); // first may ACT
}

TEST(MemoryController, RowConflictsGeneratePrecharges)
{
    Rig rig;
    std::uint8_t buf[64];
    const auto &g = rig.geometry;
    // Alternate between two rows of the same bank: row stride =
    // row_bytes * totalBanks in this layout.
    const Addr stride = g.row_bytes * g.totalBanks();
    for (int i = 0; i < 8; ++i)
        rig.readSync((i % 2) * stride, buf);
    EXPECT_GT(rig.mc.stats().row_conflicts, 0u);

    int precharges = 0;
    for (const auto &cmd : rig.tracer.trace)
        precharges += cmd.type == DdrCommandType::kPrecharge;
    EXPECT_GT(precharges, 0);
}

TEST(MemoryController, CommandStreamShape)
{
    Rig rig;
    std::uint8_t buf[64];
    rig.readSync(0x2000, buf);
    // First access: ACT then rdCAS, in that order.
    ASSERT_GE(rig.tracer.trace.size(), 2u);
    EXPECT_EQ(rig.tracer.trace[0].type, DdrCommandType::kActivate);
    EXPECT_EQ(rig.tracer.trace[1].type, DdrCommandType::kReadCas);
    EXPECT_LE(rig.tracer.trace[0].issue, rig.tracer.trace[1].issue);
    // Slot ids stay within the 4-slot encoding.
    for (const auto &cmd : rig.tracer.trace)
        EXPECT_LT(cmd.slot, 4u);
}

TEST(MemoryController, ReadLatencyIsRealistic)
{
    Rig rig;
    std::uint8_t buf[64];
    const Tick start = rig.events.now();
    rig.readSync(0x3000, buf);
    const Tick latency = rig.events.now() - start;
    // ACT + tRCD + tCL + burst at DDR4-3200: ~30-60 ns.
    EXPECT_GT(latency, 20'000u);  // > 20 ns
    EXPECT_LT(latency, 120'000u); // < 120 ns
}

TEST(MemoryController, AlertNRetriesUntilReady)
{
    Rig rig;
    std::uint8_t line[64] = {0x5a};
    rig.writeSync(0x5000, line);

    rig.dimm.alerts_remaining_ = 3;
    std::uint8_t back[64] = {};
    rig.readSync(0x5000, back);
    EXPECT_EQ(back[0], 0x5a);
    EXPECT_EQ(rig.mc.stats().alert_retries, 3u);
}

TEST(MemoryController, WritesBatchBeforeDraining)
{
    Rig rig;
    // Fill the write queue below the high watermark while reads are
    // pending: writes should wait (no interleaved drain), creating the
    // rd->wr slack.
    std::uint8_t line[64] = {1};
    int writes_done = 0;
    for (int i = 0; i < 24; ++i)
        rig.mc.enqueueWrite(0x9000 + i * 64ull, line,
                            [&](Tick, mem::MemStatus) { ++writes_done; });
    std::uint8_t buf[64];
    bool read_done = false;
    rig.mc.enqueueRead(0x100000, buf,
                       [&](Tick, mem::MemStatus) { read_done = true; });
    rig.events.run();
    EXPECT_TRUE(read_done);
    EXPECT_EQ(writes_done, 24);
    EXPECT_GT(rig.mc.stats().turnarounds, 0u);
}

TEST(MemoryController, PendingCountsIssuedCasUntilDataEnd)
{
    // An issued CAS leaves the queue but is still in flight until its
    // data phase ends; pending() must keep counting it.
    for (const bool is_write : {false, true}) {
        Rig rig;
        std::uint8_t line[64] = {};
        bool done = false;
        if (is_write)
            rig.mc.enqueueWrite(0x2000, line,
                                [&](Tick, mem::MemStatus) { done = true; });
        else
            rig.mc.enqueueRead(0x2000, line,
                               [&](Tick, mem::MemStatus) { done = true; });
        const auto cas = is_write ? DdrCommandType::kWriteCas
                                  : DdrCommandType::kReadCas;
        auto casIssued = [&] {
            for (const auto &cmd : rig.tracer.trace)
                if (cmd.type == cas)
                    return true;
            return false;
        };
        // Step one command clock at a time until the CAS is on the bus.
        while (!casIssued())
            rig.events.runUntil(rig.events.now() + 625);
        EXPECT_FALSE(done) << (is_write ? "write" : "read");
        EXPECT_EQ(rig.mc.pending(), 1u) << (is_write ? "write" : "read");
        rig.events.run();
        EXPECT_TRUE(done);
        EXPECT_EQ(rig.mc.pending(), 0u);
    }
}

TEST(MemoryController, BandwidthAccounting)
{
    Rig rig;
    std::uint8_t line[64] = {};
    for (int i = 0; i < 10; ++i)
        rig.writeSync(i * 64ull, line);
    std::uint8_t buf[64];
    for (int i = 0; i < 6; ++i)
        rig.readSync(i * 64ull, buf);
    EXPECT_EQ(rig.mc.stats().bytesMoved(), (10u + 6u) * 64u);
    EXPECT_GT(rig.mc.busBusyCycles(), 0u);
}

} // namespace
