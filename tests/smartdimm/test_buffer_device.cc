/**
 * @file
 * Buffer-device arbiter (Fig. 6): MMIO config space, plain-DIMM
 * passthrough, S7 write-ignore, S10 scratchpad reads, S13 ALERT_N and
 * the address-remap check, exercised with hand-built DDR commands.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "crypto/aes_gcm.h"
#include "mem/backing_store.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "smartdimm/mmio_layout.h"

namespace {

using namespace sd;
using mem::DdrCommand;
using mem::DdrCommandType;
using mem::ReadResponse;
using smartdimm::BufferDevice;
using smartdimm::MmioReg;
using smartdimm::TlsPageRegistration;

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
    registerTls(Addr sbuf, Addr dbuf, std::size_t len,
                const std::uint8_t key[16], const crypto::GcmIv &iv,
                std::uint64_t message_id = 1, std::uint16_t page_index = 0)
    {
        TlsPageRegistration reg;
        reg.page_index = page_index;
        reg.message_len = static_cast<std::uint32_t>(len);
        reg.sbuf_page = sbuf / kPageSize;
        reg.dbuf_page = dbuf / kPageSize;
        reg.message_id = message_id;
        std::memcpy(reg.key, key, 16);
        std::memcpy(reg.iv, iv.data(), 12);
        std::uint8_t burst[kCacheLineSize];
        reg.pack(burst);
        write(dev.config().mmio_base +
                  static_cast<Addr>(MmioReg::kRegister),
              burst);
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
    rig.registerTls(0x100000, 0x200000, 4000, key, iv);

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

    rig.registerTls(0x100000, 0x200000, 4000, key, iv);

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
    rig.registerTls(0x100000, 0x200000, 4000, key, iv);

    std::uint8_t back[64];
    EXPECT_EQ(rig.read(0x200000, back), ReadResponse::kAlertN);
    EXPECT_EQ(rig.dev.stats().alert_n, 1u);
}

TEST(BufferDevice, S7WriteIgnoredBeforeCompute)
{
    Rig rig;
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    rig.registerTls(0x100000, 0x200000, 4000, key, iv);

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
    rig.registerTls(0x100000, 0x200000, len, key, iv);

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
    rig.registerTls(0x100000, 0x200000, 4000, key, iv);

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
    rig.registerTls(0x100000, 0x200000, 4000, key, iv);
    rig.registerTls(0x300000, 0x400000, 4000, key, iv, /*msg=*/2);

    std::uint8_t back[64];
    rig.read(rig.dev.config().mmio_base +
                 static_cast<Addr>(MmioReg::kPendingList),
             back);
    std::uint64_t words[8];
    std::memcpy(words, back, sizeof(words));
    EXPECT_EQ(words[0], 2u);
}

} // namespace
