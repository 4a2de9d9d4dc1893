/**
 * @file
 * Buffer-device arbiter (Fig. 6): MMIO config space, plain-DIMM
 * passthrough, S7 write-ignore, S10 scratchpad reads, S13 ALERT_N, the
 * address-remap check and the Translation Table as the one page index,
 * exercised with hand-built DDR commands.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/random.h"
#include "crypto/aes_gcm.h"
#include "mem/backing_store.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "smartdimm/mmio_layout.h"
#include "trace/trace.h"

namespace {

using namespace sd;
using mem::DdrCommand;
using mem::DdrCommandType;
using mem::ReadResponse;
using smartdimm::BufferDevice;
using smartdimm::MappingKind;
using smartdimm::MmioReg;
using smartdimm::PageRegistration;

/** Ticks from an sbuf read to the staging wake-up it schedules. */
constexpr Tick kDsaTicks = smartdimm::kDsaLineLatency * kBufferClockPeriod;

struct Rig
{
    EventQueue events;
    mem::BackingStore store;
    mem::DramGeometry geometry;
    mem::AddressMap map;
    BufferDevice dev;

    Rig()
        : geometry(makeGeometry()),
          map(geometry),
          dev(events, map, store)
    {
    }

    static mem::DramGeometry
    makeGeometry()
    {
        mem::DramGeometry g;
        g.channels = 1;
        return g;
    }

    /** Issue ACT + CAS to the device for @p addr. */
    DdrCommand
    cas(Addr addr, DdrCommandType type)
    {
        DdrCommand act;
        act.type = DdrCommandType::kActivate;
        act.coord = map.decompose(addr);
        act.addr = addr;
        dev.onCommand(act);

        DdrCommand cmd;
        cmd.type = type;
        cmd.coord = act.coord;
        cmd.addr = addr;
        return cmd;
    }

    ReadResponse
    read(Addr addr, std::uint8_t *data)
    {
        return dev.onRead(cas(addr, DdrCommandType::kReadCas), data);
    }

    void
    write(Addr addr, const std::uint8_t *data)
    {
        dev.onWrite(cas(addr, DdrCommandType::kWriteCas), data);
    }

    /** Register one 4 KB TLS page pair. */
    void
    registerPair(Addr sbuf, Addr dbuf, std::size_t len,
                 const std::uint8_t key[16], const crypto::GcmIv &iv,
                 std::uint64_t message_id = 1, std::uint16_t page_index = 0)
    {
        PageRegistration reg;
        reg.page_index = page_index;
        reg.message_len = static_cast<std::uint32_t>(len);
        reg.sbuf_page = sbuf / kPageSize;
        reg.dbuf_page = dbuf / kPageSize;
        reg.message_id = message_id;
        std::memcpy(reg.key, key, 16);
        std::memcpy(reg.iv, iv.data(), 12);
        std::uint8_t burst[kCacheLineSize];
        smartdimm::packBurst(reg, burst);
        write(dev.config().mmio_base +
                  static_cast<Addr>(MmioReg::kRegister),
              burst);
    }

    /** Read (sbuf: feed the DSA) every line of the page at @p base. */
    void
    readPage(Addr base)
    {
        std::uint8_t line[kCacheLineSize];
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            read(base + l * kCacheLineSize, line);
    }

    /** Write back every line of the page at @p base (Self-Recycle). */
    void
    writePage(Addr base)
    {
        std::uint8_t junk[kCacheLineSize];
        std::memset(junk, 0xaa, sizeof(junk));
        for (unsigned l = 0; l < kLinesPerPage; ++l)
            write(base + l * kCacheLineSize, junk);
    }

    /** Read the page at @p base one line per buffer cycle, as a copy
     *  loop does, running the staging events that fall due before
     *  each read. */
    void
    feedPage(Addr base)
    {
        std::uint8_t line[kCacheLineSize];
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            events.runUntil(events.now() + kBufferClockPeriod);
            read(base + l * kCacheLineSize, line);
        }
    }

    /** @return true when the dbuf line at @p addr is staged. */
    bool
    staged(Addr addr)
    {
        const auto t = dev.translationTable().find(addr / kPageSize);
        return t && t->kind == MappingKind::kScratchpad &&
               dev.scratchpad().lineComputed(
                   t->offset,
                   static_cast<unsigned>((addr % kPageSize) /
                                         kCacheLineSize));
    }

    /** The kPendingList register: the listed page addresses. */
    std::vector<std::uint64_t>
    pendingList()
    {
        std::uint8_t back[kCacheLineSize];
        read(dev.config().mmio_base +
                 static_cast<Addr>(MmioReg::kPendingList),
             back);
        std::uint64_t words[8];
        std::memcpy(words, back, sizeof(words));
        return {words + 1, words + 1 + words[0]};
    }
};

TEST(BufferDevice, PlainPassthrough)
{
    Rig rig;
    std::uint8_t line[64];
    Rng rng(1);
    rng.fill(line, 64);
    rig.write(0x10000, line);
    std::uint8_t back[64] = {};
    EXPECT_EQ(rig.read(0x10000, back), ReadResponse::kOk);
    EXPECT_EQ(0, std::memcmp(line, back, 64));
    EXPECT_EQ(rig.dev.stats().plain_reads, 1u);
    EXPECT_EQ(rig.dev.stats().plain_writes, 1u);
}

TEST(BufferDevice, FreePagesRegisterReflectsScratchpad)
{
    Rig rig;
    std::uint8_t back[64];
    EXPECT_EQ(rig.read(rig.dev.config().mmio_base, back),
              ReadResponse::kOk);
    std::uint64_t free = 0;
    std::memcpy(&free, back, sizeof(free));
    EXPECT_EQ(free, rig.dev.config().scratchpadPages());
    EXPECT_EQ(rig.dev.stats().mmio_reads, 1u);
}

TEST(BufferDevice, RegistrationAllocatesResources)
{
    Rig rig;
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    rig.registerPair(0x100000, 0x200000, 4000, key, iv);

    EXPECT_EQ(rig.dev.stats().registrations, 1u);
    EXPECT_EQ(rig.dev.scratchpad().livePages(), 1u);
    EXPECT_TRUE(rig.dev.translationTable().lookup(0x100000 / kPageSize)
                    .has_value());
    EXPECT_TRUE(rig.dev.translationTable().lookup(0x200000 / kPageSize)
                    .has_value());
}

TEST(BufferDevice, SbufReadFeedsDsaAndReturnsPlaintext)
{
    Rig rig;
    Rng rng(2);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};

    // Plaintext already in DRAM (flushed by CompCpy).
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    rig.store.write(0x100000, plain.data(), plain.size());

    rig.registerPair(0x100000, 0x200000, 4000, key, iv);

    std::uint8_t back[64];
    EXPECT_EQ(rig.read(0x100000, back), ReadResponse::kOk);
    // The host must see the *original* data (the DSA taps the path).
    EXPECT_EQ(0, std::memcmp(back, plain.data(), 64));
    EXPECT_EQ(rig.dev.stats().sbuf_reads, 1u);
}

TEST(BufferDevice, DbufReadBeforeComputeAssertsAlertN)
{
    Rig rig;
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    rig.registerPair(0x100000, 0x200000, 4000, key, iv);

    std::uint8_t back[64];
    EXPECT_EQ(rig.read(0x200000, back), ReadResponse::kAlertN);
    EXPECT_EQ(rig.dev.stats().alert_n, 1u);
}

TEST(BufferDevice, S7WriteIgnoredBeforeCompute)
{
    Rig rig;
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    rig.registerPair(0x100000, 0x200000, 4000, key, iv);

    std::uint8_t junk[64];
    std::memset(junk, 0xee, 64);
    rig.write(0x200000, junk);
    EXPECT_EQ(rig.dev.stats().dbuf_write_ignored, 1u);
    // DRAM unchanged.
    std::uint8_t dram[64];
    rig.store.read(0x200000, dram, 64);
    for (auto b : dram)
        EXPECT_EQ(b, 0);
}

TEST(BufferDevice, FullOffloadSelfRecyclesAndMatchesGcm)
{
    Rig rig;
    Rng rng(3);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const std::size_t len = 4000;
    std::vector<std::uint8_t> plain(4096, 0);
    rng.fill(plain.data(), len);
    rig.store.write(0x100000, plain.data(), plain.size());
    rig.registerPair(0x100000, 0x200000, len, key, iv);

    // Read every sbuf line (the memcpy's loads).
    std::uint8_t line[64];
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        EXPECT_EQ(rig.read(0x100000 + l * 64ull, line),
                  ReadResponse::kOk);

    // Let the DSA-latency events fire.
    rig.events.run();

    // Writebacks of the dbuf (self-recycle): host data replaced.
    std::uint8_t host_junk[64];
    std::memset(host_junk, 0xaa, 64);
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        rig.write(0x200000 + l * 64ull, host_junk);

    EXPECT_EQ(rig.dev.scratchpad().livePages(), 0u)
        << "page must self-recycle after all 64 drains";
    EXPECT_EQ(rig.dev.stats().dbuf_recycles, kLinesPerPage);

    // DRAM now holds ciphertext || tag.
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(len);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), len, expect.data());
    std::vector<std::uint8_t> dram(4096);
    rig.store.read(0x200000, dram.data(), dram.size());
    EXPECT_EQ(0, std::memcmp(dram.data(), expect.data(), len));
    EXPECT_EQ(0, std::memcmp(dram.data() + len, tag.data(), 16));
}

TEST(BufferDevice, S10ScratchpadReadAfterCompute)
{
    Rig rig;
    Rng rng(4);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};

    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    rig.store.write(0x100000, plain.data(), plain.size());
    rig.registerPair(0x100000, 0x200000, 4000, key, iv);

    std::uint8_t line[64];
    for (unsigned l = 0; l < kLinesPerPage; ++l)
        rig.read(0x100000 + l * 64ull, line);
    rig.events.run();

    // Read dbuf without any writeback: S10 serves from scratchpad.
    std::uint8_t back[64];
    EXPECT_EQ(rig.read(0x200000, back), ReadResponse::kOk);
    EXPECT_GT(rig.dev.stats().dbuf_scratch_reads, 0u);

    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(4000);
    ctx.encrypt(iv, plain.data(), 4000, expect.data());
    EXPECT_EQ(0, std::memcmp(back, expect.data(), 64));
}

TEST(BufferDevice, PendingListExposesUnrecycledPages)
{
    Rig rig;
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    rig.registerPair(0x100000, 0x200000, 4000, key, iv);
    rig.registerPair(0x300000, 0x400000, 4000, key, iv, /*msg=*/2);

    EXPECT_EQ(rig.pendingList().size(), 2u);
}

TEST(BufferDevice, PendingListListsLivePagesInSlotOrder)
{
    Rig rig;
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    rig.registerPair(0x100000, 0x500000, 4000, key, iv, /*msg=*/1);
    rig.registerPair(0x200000, 0x600000, 4000, key, iv, /*msg=*/2);
    rig.registerPair(0x300000, 0x700000, 4000, key, iv, /*msg=*/3);

    // Retire the second page; the next registration reuses its
    // Scratchpad page (the allocator is LIFO) and is listed there,
    // ahead of the older third page.
    rig.readPage(0x200000);
    rig.events.run();
    rig.writePage(0x600000);
    ASSERT_EQ(rig.dev.scratchpad().livePages(), 2u);
    rig.registerPair(0x400000, 0x800000, 4000, key, iv, /*msg=*/4);

    EXPECT_EQ(rig.pendingList(),
              (std::vector<std::uint64_t>{0x500000, 0x800000, 0x700000}));
}

TEST(BufferDevice, TableLookupsCountOnlyCasDataPhases)
{
    Rig rig;
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    rig.registerPair(0x100000, 0x200000, 4000, key, iv);

    std::uint8_t line[kCacheLineSize] = {};
    rig.read(0x10000, line);  // plain
    rig.write(0x10000, line); // plain
    rig.readPage(0x100000);   // 64 sbuf reads
    const std::uint64_t events_before = rig.events.executed();
    rig.events.run();         // staging wake-ups: no CAS
    EXPECT_GT(rig.events.executed(), events_before);
    rig.read(0x200000, line); // S10
    rig.writePage(0x200000);  // 64 recycles; the last retires the page
    rig.pendingList();        // MMIO: no lookup

    EXPECT_EQ(rig.dev.scratchpad().livePages(), 0u);
    EXPECT_EQ(rig.dev.translationTable().stats().lookups,
              2u + 64u + 1u + 64u);
}

TEST(BufferDevice, StaleWakeupStagesTheReRegisteredPage)
{
    // Staging wake-ups are keyed by page. One scheduled for a page
    // that retires and is registered again before it fires stages the
    // new registration's ready lines.
    Rig rig;
    Rng rng(5);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    rig.store.write(0x300000, plain.data(), plain.size());

    // A two-page record: every read of either source page wakes both
    // destination pages.
    rig.registerPair(0x100000, 0x200000, 8000, key, iv, /*msg=*/1, 0);
    rig.registerPair(0x110000, 0x210000, 8000, key, iv, /*msg=*/1, 1);
    rig.readPage(0x100000);
    rig.events.run();

    std::uint8_t line[kCacheLineSize] = {};
    rig.read(0x110000, line); // wakes 0x200000 at now + kDsaTicks
    const Tick stale_at = rig.events.now() + kDsaTicks;
    rig.events.runUntil(stale_at - kDsaTicks / 2);

    rig.writePage(0x200000); // drains and retires 0x200000
    ASSERT_FALSE(rig.dev.translationTable().find(0x200000 / kPageSize));
    rig.registerPair(0x300000, 0x200000, 4000, key, iv, /*msg=*/2);
    for (unsigned l = 0; l < 4; ++l)
        rig.read(0x300000 + l * kCacheLineSize, line);

    // Only the stale wake-up has fired: it staged lines 0-3.
    rig.events.runUntil(stale_at);
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(4000);
    ctx.encrypt(iv, plain.data(), 4000, expect.data());
    for (unsigned l = 0; l < 4; ++l) {
        ASSERT_EQ(rig.read(0x200000 + l * kCacheLineSize, line),
                  ReadResponse::kOk)
            << "line " << l;
        EXPECT_EQ(0, std::memcmp(line, expect.data() + l * kCacheLineSize,
                                 kCacheLineSize));
    }
    EXPECT_EQ(rig.read(0x200000 + 4 * kCacheLineSize, line),
              ReadResponse::kAlertN);
}

TEST(BufferDevice, SbufReRegisteredBeforeOldDestRetiresKeepsNewMapping)
{
    Rig rig;
    Rng rng(6);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    std::vector<std::uint8_t> plain(4096, 0);
    rng.fill(plain.data(), 4000);
    rig.store.write(0x100000, plain.data(), plain.size());

    rig.registerPair(0x100000, 0x200000, 4000, key, iv, /*msg=*/1);
    rig.readPage(0x100000);
    rig.events.run();

    // The sbuf page is registered again, to a new destination, while
    // the old destination still holds its staged lines.
    std::uint8_t key2[16];
    rng.fill(key2, 16);
    rig.registerPair(0x100000, 0x300000, 4000, key2, iv, /*msg=*/2);
    rig.writePage(0x200000); // the old destination retires

    const auto sbuf = rig.dev.translationTable().find(0x100000 / kPageSize);
    ASSERT_TRUE(sbuf.has_value());
    EXPECT_EQ(sbuf->kind, MappingKind::kConfigMemory);
    EXPECT_EQ(sbuf->dest_page, 0x300000 / kPageSize);

    // The new pair offloads end to end.
    const std::uint64_t fed = rig.dev.stats().sbuf_reads;
    rig.readPage(0x100000);
    EXPECT_EQ(rig.dev.stats().sbuf_reads, fed + kLinesPerPage);
    rig.events.run();
    rig.writePage(0x300000);
    EXPECT_EQ(rig.dev.scratchpad().livePages(), 0u);
    EXPECT_FALSE(rig.dev.translationTable().find(0x100000 / kPageSize));
    // Re-registering the sbuf page retired its old mapping, so the
    // first registration's Config Memory slot went back too.
    EXPECT_EQ(rig.dev.configMemory().freeSlots(),
              smartdimm::kConfigMemoryBytes / smartdimm::kContextBytes);
    EXPECT_EQ(rig.dev.translationTable().size(), 0u);
    EXPECT_EQ(rig.dev.liveRecords(), 0u);

    crypto::GcmContext ctx(key2, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(4000);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), 4000, expect.data());
    std::vector<std::uint8_t> dram(4096);
    rig.store.read(0x300000, dram.data(), dram.size());
    EXPECT_EQ(0, std::memcmp(dram.data(), expect.data(), 4000));
    EXPECT_EQ(0, std::memcmp(dram.data() + 4000, tag.data(), 16));
}

TEST(BufferDevice, DbufReRegisteredRetiresTheOldRegistration)
{
    Rig rig;
    Rng rng(8);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};

    // A -> P, then B -> P before A's registration ever drained: the
    // second registration takes P over, and A's Scratchpad page and
    // Config Memory slot go back to the device. A's record, never fed,
    // can never finish, so it goes with its last page.
    rig.registerPair(0x100000, 0x200000, 4000, key, iv, /*msg=*/1);
    rig.registerPair(0x110000, 0x200000, 4000, key, iv, /*msg=*/2);
    EXPECT_EQ(rig.dev.scratchpad().livePages(), 1u);
    EXPECT_FALSE(rig.dev.translationTable().find(0x100000 / kPageSize));
    EXPECT_EQ(rig.dev.liveRecords(), 1u);

    rig.readPage(0x110000);
    rig.events.run();
    rig.writePage(0x200000);
    EXPECT_EQ(rig.dev.scratchpad().livePages(), 0u);
    EXPECT_EQ(rig.dev.liveRecords(), 0u);
    EXPECT_EQ(rig.dev.configMemory().freeSlots(),
              smartdimm::kConfigMemoryBytes / smartdimm::kContextBytes);

    std::uint8_t back[kCacheLineSize];
    rig.read(rig.dev.config().mmio_base +
                 static_cast<Addr>(MmioReg::kFreePages),
             back);
    std::uint64_t free = 0;
    std::memcpy(&free, back, sizeof(free));
    EXPECT_EQ(free, rig.dev.config().scratchpadPages());
}

/** Records every staged line, as (tick, address), while in scope. */
class StagingLog
{
  public:
    explicit StagingLog(const std::vector<Addr> &dbuf_pages)
    {
        auto &tr = trace::tracer();
        tr.clear();
        tr.enable();
        const std::uint32_t span = tr.beginSpan("tls", 0, 0, 0, 0);
        for (Addr page : dbuf_pages)
            tr.bindPage(page / kPageSize, span);
    }

    ~StagingLog()
    {
        trace::tracer().disable();
        trace::tracer().clear();
    }

    std::vector<std::pair<Tick, Addr>>
    staged() const
    {
        std::vector<std::pair<Tick, Addr>> out;
        for (const trace::TraceEvent &e : trace::tracer().events())
            if (e.stage == trace::Stage::kStage)
                out.emplace_back(e.tick, e.addr);
        return out;
    }
};

/** FNV-1a over a staging log. */
std::uint64_t
digest(const std::vector<std::pair<Tick, Addr>> &log)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &[tick, addr] : log)
        for (std::uint64_t v : {std::uint64_t{tick}, std::uint64_t{addr}})
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 1099511628211ull;
            }
    return h;
}

TEST(BufferDevice, MultiPageRecordsRunOneStagingEventPerFedLine)
{
    // A two-page record whose second page registers only after its
    // first page is fed, then a three-page record ending in a tag-only
    // page, which the retire sweep drops before its last lines' staging
    // events fire. Each fed line runs one event, and the staging log
    // is the one the device printed when it scheduled one event per
    // destination page of the record.
    Rig rig;
    Rng rng(7);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());
    std::vector<std::uint8_t> plain(4 * kPageSize);
    rng.fill(plain.data(), plain.size());
    rig.store.write(0x100000, plain.data(), 2 * kPageSize);
    rig.store.write(0x120000, plain.data() + 2 * kPageSize, 2 * kPageSize);

    StagingLog log({0x200000, 0x201000, 0x220000, 0x221000, 0x222000});
    const std::uint64_t events_before = rig.events.executed();

    rig.registerPair(0x100000, 0x200000, 8000, key, iv, /*msg=*/1, 0);
    rig.feedPage(0x100000);
    rig.registerPair(0x101000, 0x201000, 8000, key, iv, /*msg=*/1, 1);
    rig.feedPage(0x101000);
    rig.events.runUntil(rig.events.now() + kDsaTicks);
    rig.writePage(0x200000);
    std::uint8_t junk[kCacheLineSize] = {};
    for (unsigned l = 0; l + 1 < kLinesPerPage; ++l)
        rig.write(0x201000 + l * kCacheLineSize, junk);

    rig.registerPair(0x120000, 0x220000, 8192, key, iv, /*msg=*/2, 0);
    rig.registerPair(0x121000, 0x221000, 8192, key, iv, /*msg=*/2, 1);
    rig.registerPair(0x222000, 0x222000, 8192, key, iv, /*msg=*/2, 2);
    rig.feedPage(0x120000);
    rig.feedPage(0x121000);
    // The first record's last page retires; the sweep drops both
    // (complete) records while the second one's wake-ups are pending.
    rig.write(0x201000 + (kLinesPerPage - 1) * kCacheLineSize, junk);
    ASSERT_FALSE(rig.dev.translationTable().find(0x201000 / kPageSize));
    rig.events.run();
    for (Addr page : {0x220000, 0x221000, 0x222000})
        rig.writePage(page);

    EXPECT_EQ(rig.dev.stats().sbuf_reads, 4 * kLinesPerPage);
    EXPECT_EQ(rig.events.executed() - events_before, 4 * kLinesPerPage);
    EXPECT_EQ(rig.dev.scratchpad().livePages(), 0u);
    const auto staged = log.staged();
    EXPECT_EQ(staged.size(), 5 * kLinesPerPage);
    EXPECT_EQ(digest(staged), 0x04ff5408450fae32ull);
}

TEST(BufferDevice, WakeupSkipsPagesRegisteredAfterItsFeed)
{
    // A fed line wakes the record's pages as listed when it was fed. A
    // page registered later is staged by its own lines' events only.
    Rig rig;
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    rig.registerPair(0x100000, 0x200000, 8000, key, iv, /*msg=*/1, 0);
    rig.readPage(0x100000);
    const Tick fed_at = rig.events.now();
    rig.registerPair(0x101000, 0x201000, 8000, key, iv, /*msg=*/1, 1);
    rig.events.runUntil(fed_at + kBufferClockPeriod);
    std::uint8_t line[kCacheLineSize];
    rig.read(0x101000, line);

    rig.events.runUntil(fed_at + kDsaTicks);
    EXPECT_TRUE(rig.staged(0x200000 + (kLinesPerPage - 1) * kCacheLineSize));
    EXPECT_FALSE(rig.staged(0x201000));
    rig.events.runUntil(fed_at + kBufferClockPeriod + kDsaTicks);
    EXPECT_TRUE(rig.staged(0x201000));
    EXPECT_EQ(rig.events.executed(), kLinesPerPage + 1);
}

TEST(BufferDevice, WakeupStagesSiblingsOfASweptRecord)
{
    // The record's last line makes the tag-only page's tag ready. The
    // record is complete, so the sweep of a retiring page drops it
    // before that line's staging event fires; the event still wakes
    // the tag-only page.
    Rig rig;
    Rng rng(8);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    std::vector<std::uint8_t> plain(2 * kPageSize);
    rng.fill(plain.data(), plain.size());
    rig.store.write(0x100000, plain.data(), plain.size());

    rig.registerPair(0x100000, 0x200000, 8192, key, iv, /*msg=*/1, 0);
    rig.registerPair(0x101000, 0x201000, 8192, key, iv, /*msg=*/1, 1);
    rig.registerPair(0x202000, 0x202000, 8192, key, iv, /*msg=*/1, 2);
    rig.readPage(0x100000);
    rig.events.run();
    std::uint8_t junk[kCacheLineSize] = {};
    for (unsigned l = 0; l + 1 < kLinesPerPage; ++l)
        rig.write(0x200000 + l * kCacheLineSize, junk);

    rig.readPage(0x101000);
    rig.write(0x200000 + (kLinesPerPage - 1) * kCacheLineSize, junk);
    ASSERT_FALSE(rig.dev.translationTable().find(0x200000 / kPageSize));
    EXPECT_FALSE(rig.staged(0x202000));
    rig.events.run();
    EXPECT_TRUE(rig.staged(0x202000));

    rig.writePage(0x201000);
    rig.writePage(0x202000);
    EXPECT_EQ(rig.dev.scratchpad().livePages(), 0u);
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(plain.size());
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), plain.size(), expect.data());
    std::uint8_t dram[16];
    rig.store.read(0x202000, dram, sizeof(dram));
    EXPECT_EQ(0, std::memcmp(dram, tag.data(), sizeof(dram)));
}

} // namespace
