/**
 * @file
 * Recovery paths above the controller: rejected registrations (the
 * pages degrade to plain DRAM and the host learns via kFaultStatus),
 * cuckoo-table insert faults, freePages lies driving Force-Recycle and
 * its bail-out bound, write-drain delays, and scripted network faults.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "crypto/aes_gcm.h"
#include "fault/fault.h"
#include "net/loss_model.h"
#include "net/tcp_stream.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "smartdimm/cuckoo_table.h"
#include "smartdimm/mmio_layout.h"
#include "topo/topology.h"

namespace {

using namespace sd;

/** One-channel SmartDIMM rig: a 1x1 topology with a 4 MB LLC. */
topo::TopologySpec
systemSpec()
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    return spec;
}

/** Run one 4 KB TLS CompCpy and return what readResult sees. */
std::vector<std::uint8_t>
runTls(topo::Topology &sys, const std::vector<std::uint8_t> &plain,
       const std::uint8_t key[16], const crypto::GcmIv &iv,
       std::uint64_t message_id)
{
    const std::size_t len = plain.size();
    const Addr sbuf = sys.slot(0).driver.alloc(len);
    const Addr dbuf = sys.slot(0).driver.alloc(len + kPageSize);
    sys.memory().writeSync(sbuf, plain.data(), len);

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = message_id;
    std::memcpy(params.key, key, 16);
    params.iv = iv;

    sys.slot(0).queue.run(params);
    sys.slot(0).engine.useSync(dbuf, divCeil(len + 16, kPageSize) * kPageSize);
    return sys.slot(0).engine.readResult(dbuf, len + 16);
}

std::vector<std::uint8_t>
softwareCiphertext(const std::vector<std::uint8_t> &plain,
                   const std::uint8_t key[16], const crypto::GcmIv &iv)
{
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(plain.size() + 16);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), plain.size(), expect.data());
    std::memcpy(expect.data() + plain.size(), tag.data(), 16);
    return expect;
}

TEST(RecoveryPaths, ScratchpadExhaustRejectsAndDegradesGracefully)
{
    topo::Topology sys(systemSpec());
    fault::FaultPlan plan(1);
    plan.add(fault::Site::kScratchpadExhaust, 0, /*count=*/1);
    sys.setFaultPlan(&plan);

    Rng rng(11);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const auto result = runTls(sys, plain, key, iv, 1);

    // The data page's registration was rejected, so its lines behaved
    // as plain DRAM: the copy went through unencrypted and the call is
    // flagged degraded instead of aborting.
    EXPECT_EQ(sys.slot(0).device.stats().rejected_registrations, 1u);
    EXPECT_EQ(sys.slot(0).engine.stats().rejected_registrations, 1u);
    EXPECT_EQ(sys.slot(0).engine.stats().degraded_calls, 1u);
    ASSERT_EQ(result.size(), plain.size() + 16);
    EXPECT_EQ(0, std::memcmp(result.data(), plain.data(), plain.size()))
        << "rejected pages must behave as plain DRAM";
    // No scratchpad page leaked by the rollback.
    EXPECT_LE(sys.slot(0).device.scratchpad().livePages(), 1u);
}

TEST(RecoveryPaths, ConfigMemoryExhaustRejectsRegistration)
{
    topo::Topology sys(systemSpec());
    fault::FaultPlan plan(2);
    plan.add(fault::Site::kConfigMemExhaust, 0, /*count=*/1);
    sys.setFaultPlan(&plan);

    Rng rng(12);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    runTls(sys, plain, key, iv, 2);

    EXPECT_EQ(sys.slot(0).device.stats().rejected_registrations, 1u);
    EXPECT_EQ(sys.slot(0).engine.stats().degraded_calls, 1u);
    EXPECT_EQ(plan.injected(fault::Site::kConfigMemExhaust), 1u);
}

TEST(RecoveryPaths, CuckooInsertFailureSurfacesAsRejection)
{
    topo::Topology sys(systemSpec());
    fault::FaultPlan plan(3);
    plan.add(fault::Site::kCuckooInsertFail, 0, /*count=*/1);
    sys.setFaultPlan(&plan);

    Rng rng(13);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    runTls(sys, plain, key, iv, 3);

    EXPECT_EQ(sys.slot(0).device.translationTable().stats().failures, 1u);
    EXPECT_EQ(sys.slot(0).device.stats().rejected_registrations, 1u);
    EXPECT_EQ(sys.slot(0).engine.stats().degraded_calls, 1u);
}

/** Write one registration burst to slot 0's device and let it land. */
void
writeRegistration(topo::Topology &sys, const smartdimm::PageRegistration &reg)
{
    std::uint8_t burst[kCacheLineSize];
    smartdimm::packBurst(reg, burst);
    bool landed = false;
    sys.memory().mmioWrite(
        sys.slot(0).driver.mmio(smartdimm::MmioReg::kRegister), burst,
        [&landed](Tick) { landed = true; });
    sys.events().run();
    ASSERT_TRUE(landed);
}

/** What a registration takes from the device. */
struct DeviceHoldings
{
    std::size_t free_pages;
    std::size_t free_slots;
    std::size_t mappings;
    std::size_t records;

    explicit DeviceHoldings(const smartdimm::BufferDevice &dev)
        : free_pages(dev.scratchpad().freePages()),
          free_slots(dev.configMemory().freeSlots()),
          mappings(dev.translationTable().size()),
          records(dev.liveRecords())
    {
    }

    bool operator==(const DeviceHoldings &) const = default;
};

TEST(RecoveryPaths, RejectedRegistrationHandsBackEverything)
{
    // Each page kind meets each fault its registration can hit. The
    // insert fault with skip 0 fails the first insert (the source's,
    // or a tag-only page's only one); with skip 1 it fails the
    // destination insert after the source insert went in. A tag-only
    // page takes no Config Memory slot and makes one insert.
    using smartdimm::MmioOpcode;
    using fault::Site;
    struct Case
    {
        const char *page;
        MmioOpcode opcode;
        bool tag_only;
        Site site;
        std::uint64_t skip;
    };
    const Case cases[] = {
        {"tls data", MmioOpcode::kRegisterTlsPage, false,
         Site::kScratchpadExhaust, 0},
        {"tls data", MmioOpcode::kRegisterTlsPage, false,
         Site::kConfigMemExhaust, 0},
        {"tls data", MmioOpcode::kRegisterTlsPage, false,
         Site::kCuckooInsertFail, 0},
        {"tls data", MmioOpcode::kRegisterTlsPage, false,
         Site::kCuckooInsertFail, 1},
        {"tls tag-only", MmioOpcode::kRegisterTlsPage, true,
         Site::kScratchpadExhaust, 0},
        {"tls tag-only", MmioOpcode::kRegisterTlsPage, true,
         Site::kCuckooInsertFail, 0},
        {"deflate", MmioOpcode::kRegisterDeflatePage, false,
         Site::kScratchpadExhaust, 0},
        {"deflate", MmioOpcode::kRegisterDeflatePage, false,
         Site::kConfigMemExhaust, 0},
        {"deflate", MmioOpcode::kRegisterDeflatePage, false,
         Site::kCuckooInsertFail, 0},
        {"deflate", MmioOpcode::kRegisterDeflatePage, false,
         Site::kCuckooInsertFail, 1},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.page) + " / " +
                     fault::siteName(c.site) + " skip " +
                     std::to_string(c.skip));
        topo::Topology sys(systemSpec());
        const smartdimm::BufferDevice &dev = sys.slot(0).device;
        const std::uint64_t sbuf = sys.slot(0).driver.alloc(2 * kPageSize) /
                                   kPageSize;
        const std::uint64_t dbuf = sys.slot(0).driver.alloc(3 * kPageSize) /
                                   kPageSize;

        // Page 0 of an 8 KB record stands registered, so a rollback
        // must leave the device holding exactly it.
        smartdimm::PageRegistration first;
        first.message_len = 2 * kPageSize;
        first.message_id = 1;
        first.sbuf_page = sbuf;
        first.dbuf_page = dbuf;
        writeRegistration(sys, first);

        // The faulted page: the same record's tag-only trailer page,
        // or a page pair with a record (or Deflate job) of its own.
        smartdimm::PageRegistration reg;
        if (c.tag_only) {
            reg = first;
            reg.page_index = 2;
            reg.sbuf_page = reg.dbuf_page = dbuf + 2;
        } else {
            reg.message_len = 4000;
            reg.message_id = 2;
            reg.sbuf_page = sbuf + 1;
            reg.dbuf_page = dbuf + 1;
        }
        reg.opcode = c.opcode;

        const DeviceHoldings before(dev);
        const smartdimm::ArbiterStats stats = dev.stats();
        fault::FaultPlan plan(5);
        plan.add(c.site, c.skip, /*count=*/1);
        sys.setFaultPlan(&plan);
        writeRegistration(sys, reg);

        EXPECT_EQ(plan.injected(c.site), 1u);
        EXPECT_EQ(dev.stats().rejected_registrations,
                  stats.rejected_registrations + 1);
        EXPECT_EQ(dev.stats().registrations, stats.registrations);
        EXPECT_EQ(DeviceHoldings(dev), before);
        EXPECT_FALSE(dev.translationTable().find(reg.dbuf_page));
        EXPECT_FALSE(dev.translationTable().find(reg.sbuf_page));

        // The plan's one fault is spent: the same pages now register.
        writeRegistration(sys, reg);
        EXPECT_EQ(dev.stats().registrations, stats.registrations + 1);
        EXPECT_EQ(dev.stats().rejected_registrations,
                  stats.rejected_registrations + 1);
        const auto dst = dev.translationTable().find(reg.dbuf_page);
        ASSERT_TRUE(dst.has_value());
        EXPECT_EQ(dst->kind, smartdimm::MappingKind::kScratchpad);
        if (!c.tag_only) {
            const auto src = dev.translationTable().find(reg.sbuf_page);
            ASSERT_TRUE(src.has_value());
            EXPECT_EQ(src->kind, smartdimm::MappingKind::kConfigMemory);
            EXPECT_EQ(src->dest_page, reg.dbuf_page);
        }
        const bool new_record =
            c.opcode == MmioOpcode::kRegisterTlsPage && !c.tag_only;
        EXPECT_EQ(dev.liveRecords(), before.records + (new_record ? 1 : 0));
        EXPECT_EQ(dev.scratchpad().freePages(), before.free_pages - 1);
        EXPECT_EQ(dev.configMemory().freeSlots(),
                  before.free_slots - (c.tag_only ? 0 : 1));
    }
}

TEST(RecoveryPaths, ForcedCuckooConflictsStillResolve)
{
    // Unit-level: forced displacement chains must still produce a
    // correct table (CAM staging + direct placement into an empty
    // bucket), never a lost or corrupt mapping.
    smartdimm::CuckooTable table(/*buckets=*/64, /*cam_entries=*/8);
    fault::FaultPlan plan(4);
    plan.add(fault::Site::kCuckooConflict, 0, /*count=*/5);
    table.setFaultPlan(&plan);

    for (std::uint64_t page = 100; page < 110; ++page) {
        smartdimm::Translation t;
        t.kind = smartdimm::MappingKind::kScratchpad;
        t.offset = static_cast<std::uint32_t>(page);
        ASSERT_TRUE(table.insert(page, t)) << "page " << page;
    }
    EXPECT_EQ(plan.injected(fault::Site::kCuckooConflict), 5u);
    EXPECT_GE(table.stats().displaced_inserts, 5u);

    for (std::uint64_t page = 100; page < 110; ++page) {
        const auto t = table.lookup(page);
        ASSERT_TRUE(t.has_value()) << "page " << page;
        EXPECT_EQ(t->offset, page);
    }
    EXPECT_EQ(table.size(), 10u);
}

TEST(RecoveryPaths, FreePagesLieDrivesForceRecycleThenRecovers)
{
    topo::Topology sys(systemSpec());
    fault::FaultPlan plan(5);
    plan.add(fault::Site::kFreePagesLie, 0, /*count=*/1);
    sys.setFaultPlan(&plan);

    Rng rng(14);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const auto result = runTls(sys, plain, key, iv, 4);

    // One lie: the engine took Alg. 1, re-read the truth and finished
    // bit-exactly — no degradation.
    EXPECT_EQ(sys.slot(0).device.stats().freepages_lies, 1u);
    EXPECT_GE(sys.slot(0).engine.stats().force_recycles, 1u);
    EXPECT_EQ(sys.slot(0).engine.stats().recycle_bailouts, 0u);
    EXPECT_EQ(sys.slot(0).engine.stats().degraded_calls, 0u);
    EXPECT_EQ(result, softwareCiphertext(plain, key, iv));
}

TEST(RecoveryPaths, PersistentFreePagesLiesBailOutBounded)
{
    topo::Topology sys(systemSpec());
    fault::FaultPlan plan(6);
    plan.add(fault::Site::kFreePagesLie); // every read lies, forever
    sys.setFaultPlan(&plan);

    Rng rng(15);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const auto result = runTls(sys, plain, key, iv, 5);

    // The Force-Recycle loop is bounded: past the attempt budget the
    // engine proceeds optimistically, and since the scratchpad really
    // had room the offload still completes bit-exactly.
    EXPECT_EQ(sys.slot(0).engine.stats().recycle_bailouts, 1u);
    EXPECT_GE(sys.slot(0).engine.stats().force_recycles, 1u);
    EXPECT_GE(sys.slot(0).device.stats().freepages_lies, 1u);
    EXPECT_EQ(result, softwareCiphertext(plain, key, iv));
}

TEST(RecoveryPaths, WriteDrainDelayLosesNoWrites)
{
    topo::Topology topo;
    mem::MemoryController &mc = topo.memory().controller(0);
    fault::FaultPlan plan(7);
    plan.add(fault::Site::kWriteDrainDelay, 0, /*count=*/2);
    mc.setFaultPlan(&plan);

    std::uint8_t line[64] = {0xAB};
    int writes_done = 0;
    for (int i = 0; i < 56; ++i)
        mc.enqueueWrite(0x80000 + i * 64ull, line,
                        [&](Tick, mem::MemStatus) { ++writes_done; });
    std::uint8_t buf[64];
    int reads_done = 0;
    for (int i = 0; i < 8; ++i)
        mc.enqueueRead(0x200000 + i * 64ull, buf,
                       [&](Tick, mem::MemStatus) { ++reads_done; });
    topo.events().run();

    EXPECT_EQ(writes_done, 56);
    EXPECT_EQ(reads_done, 8);
    EXPECT_EQ(plan.injected(fault::Site::kWriteDrainDelay), 2u);
    // Delayed or not, every queued write eventually hit the DIMM.
    std::uint8_t back[64];
    topo.store().read(0x80000, back, 64);
    EXPECT_EQ(back[0], 0xAB);
}

TEST(RecoveryPaths, ScriptedLossAndReorderAreExact)
{
    net::LossConfig config; // no Bernoulli noise
    net::LossInjector injector(config, /*seed=*/1);
    fault::FaultPlan plan(8);
    plan.add(fault::Site::kNetLoss, /*skip=*/2, /*count=*/2);
    plan.add(fault::Site::kNetReorder, 0, /*count=*/3);
    injector.setFaultPlan(&plan);

    int drops = 0;
    int reorders = 0;
    for (int i = 0; i < 50; ++i) {
        drops += injector.shouldDrop();
        reorders += injector.shouldReorder();
    }
    EXPECT_EQ(drops, 2);
    EXPECT_EQ(reorders, 3);
    EXPECT_EQ(injector.scriptedDrops(), 2u);
    EXPECT_EQ(injector.scriptedReorders(), 3u);
    EXPECT_EQ(injector.drops(), 2u);
    EXPECT_EQ(injector.reorders(), 3u);
}

TEST(RecoveryPaths, ScriptedBurstLossForcesTcpRecovery)
{
    net::LossConfig loss;
    loss.burst_len = 4;

    const auto clean = net::tcpTransfer(1 << 20, loss, /*seed=*/3);
    EXPECT_EQ(clean.retransmits, 0u);

    auto run = [&]() {
        auto plan = fault::FaultPlan(9);
        plan.add(fault::Site::kNetLoss, /*skip=*/40, /*count=*/1);
        plan.add(fault::Site::kNetReorder, /*skip=*/100, /*count=*/1);
        return net::tcpTransfer(1 << 20, loss, /*seed=*/3, &plan);
    };
    const auto faulty = run();
    EXPECT_EQ(faulty.retransmits, 4u) << "one scripted burst of 4";
    EXPECT_EQ(faulty.reorder_events, 1u);
    EXPECT_GT(faulty.seconds, clean.seconds)
        << "loss recovery must cost time";
    EXPECT_GT(faulty.resyncEvents(), clean.resyncEvents());

    // Determinism: an identical plan replays the identical transfer.
    const auto again = run();
    EXPECT_EQ(again.seconds, faulty.seconds);
    EXPECT_EQ(again.segments_sent, faulty.segments_sent);
    EXPECT_EQ(again.retransmits, faulty.retransmits);
}

} // namespace
