/**
 * @file
 * Full-stack integration: CompCpy drives real DDR commands through the
 * simulated memory controller into the SmartDIMM buffer device; the
 * transformed bytes read back from simulated DRAM must match the
 * software implementations exactly.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cache/memory_system.h"
#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/offload_engine.h"
#include "compress/deflate.h"
#include "crypto/tls_record.h"
#include "sim/event_queue.h"
#include "smartdimm/buffer_device.h"
#include "topo/topology.h"

namespace {

using namespace sd;

/** One-channel SmartDIMM test system: a 1x1 topology, 4 MB LLC. */
topo::TopologySpec
systemSpec()
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = 4ull << 20;
    return spec;
}

TEST(EndToEnd, TlsOffloadMatchesSoftwareGcm)
{
    topo::Topology sys(systemSpec());
    Rng rng(1);

    const std::size_t len = 4096;
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), len);

    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    // Stage plaintext in the source buffer (through the cache, like an
    // application would).
    const Addr sbuf = sys.slot(0).driver.alloc(len);
    const Addr dbuf = sys.slot(0).driver.alloc(len + kPageSize); // room for tag
    sys.memory().writeSync(sbuf, plain.data(), len);

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 42;
    std::memcpy(params.key, key, 16);
    params.iv = iv;

    sys.slot(0).queue.run(params);
    sys.slot(0).engine.useSync(dbuf, divCeil(len + 16, kPageSize) * kPageSize);
    const auto result = sys.slot(0).engine.readResult(dbuf, len + 16);

    // Software reference.
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(len);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), len, expect.data());

    ASSERT_EQ(result.size(), len + 16);
    EXPECT_EQ(0, std::memcmp(result.data(), expect.data(), len))
        << "ciphertext mismatch";
    EXPECT_EQ(0, std::memcmp(result.data() + len, tag.data(), 16))
        << "trailer tag mismatch";
}

TEST(EndToEnd, TlsOffloadMultiPageRecord)
{
    topo::Topology sys(systemSpec());
    Rng rng(2);

    const std::size_t len = 3 * 4096 + 1000; // 4 source pages
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), len);

    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const std::size_t src_bytes = divCeil(len, kPageSize) * kPageSize;
    const Addr sbuf = sys.slot(0).driver.alloc(src_bytes);
    const Addr dbuf = sys.slot(0).driver.alloc(src_bytes + kPageSize);
    std::vector<std::uint8_t> staged(src_bytes, 0);
    std::memcpy(staged.data(), plain.data(), len);
    sys.memory().writeSync(sbuf, staged.data(), staged.size());

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 7;
    std::memcpy(params.key, key, 16);
    params.iv = iv;

    sys.slot(0).queue.run(params);
    const std::size_t dst_bytes =
        divCeil(len + 16, kPageSize) * kPageSize;
    sys.slot(0).engine.useSync(dbuf, dst_bytes);
    const auto result = sys.slot(0).engine.readResult(dbuf, len + 16);

    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(len);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), len, expect.data());

    EXPECT_EQ(0, std::memcmp(result.data(), expect.data(), len));
    EXPECT_EQ(0, std::memcmp(result.data() + len, tag.data(), 16));
}

TEST(EndToEnd, TlsOffloadExactPageBoundaryTag)
{
    // message_len % 4096 == 0 forces a tag-only trailer page.
    topo::Topology sys(systemSpec());
    Rng rng(3);

    const std::size_t len = 8192;
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), len);
    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv iv{};
    rng.fill(iv.data(), iv.size());

    const Addr sbuf = sys.slot(0).driver.alloc(len);
    const Addr dbuf = sys.slot(0).driver.alloc(len + kPageSize);
    sys.memory().writeSync(sbuf, plain.data(), len);

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = 9;
    std::memcpy(params.key, key, 16);
    params.iv = iv;

    sys.slot(0).queue.run(params);
    sys.slot(0).engine.useSync(dbuf, divCeil(len + 16, kPageSize) * kPageSize);
    const auto result = sys.slot(0).engine.readResult(dbuf, len + 16);

    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    std::vector<std::uint8_t> expect(len);
    const crypto::GcmTag tag =
        ctx.encrypt(iv, plain.data(), len, expect.data());
    EXPECT_EQ(0, std::memcmp(result.data(), expect.data(), len));
    EXPECT_EQ(0, std::memcmp(result.data() + len, tag.data(), 16));
}

TEST(EndToEnd, DeflateOffloadDecodable)
{
    topo::Topology sys(systemSpec());
    Rng rng(4);

    // Compressible page.
    std::vector<std::uint8_t> page(4000);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>("compressible!"[i % 13]);

    const Addr sbuf = sys.slot(0).driver.alloc(kPageSize);
    const Addr dbuf = sys.slot(0).driver.alloc(kPageSize);
    std::vector<std::uint8_t> staged(kPageSize, 0);
    std::memcpy(staged.data(), page.data(), page.size());
    sys.memory().writeSync(sbuf, staged.data(), staged.size());

    compcpy::CompCpyParams params;
    params.sbuf = sbuf;
    params.dbuf = dbuf;
    params.size = page.size();
    params.ordered = true;
    params.ulp = smartdimm::UlpKind::kDeflate;

    sys.slot(0).queue.run(params);
    sys.slot(0).engine.useSync(dbuf, kPageSize);
    const auto framed = sys.slot(0).engine.readResult(dbuf, kPageSize);

    // Frame: 2-byte length + deflate stream.
    const std::size_t stream_len = framed[0] | (framed[1] << 8);
    ASSERT_GT(stream_len, 0u);
    ASSERT_LE(stream_len + 2, framed.size());
    const auto back =
        compress::deflateDecompress(framed.data() + 2, stream_len);
    EXPECT_EQ(back, page);
    EXPECT_LT(stream_len, page.size()) << "should compress";
}

TEST(EndToEnd, AdaptiveEngineCpuAndOffloadAgree)
{
    topo::Topology sys(systemSpec());
    Rng rng(5);

    std::uint8_t key[16];
    rng.fill(key, 16);
    crypto::GcmIv static_iv{};
    rng.fill(static_iv.data(), static_iv.size());

    compcpy::AdaptiveTlsEngine engine(sys.slot(0).queue, key, static_iv);

    std::vector<std::uint8_t> msg(4096);
    rng.fill(msg.data(), msg.size());

    const auto cpu = engine.protectRecord(msg.data(), msg.size(),
                                          compcpy::ProcessedOn::kCpu);
    const auto dimm = engine.protectRecord(msg.data(), msg.size(),
                                           compcpy::ProcessedOn::kSmartDimm);

    // Different sequence numbers -> different nonces, so compare each
    // against its own software reference.
    crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
    for (std::uint64_t seq = 0; seq < 2; ++seq) {
        std::vector<std::uint8_t> expect(msg.size());
        const crypto::GcmTag tag =
            ctx.encrypt(crypto::tlsNonce(static_iv, seq), msg.data(),
                        msg.size(), expect.data());
        const auto &rec = seq == 0 ? cpu : dimm;
        ASSERT_EQ(rec.body.size(), msg.size() + 16);
        EXPECT_EQ(0, std::memcmp(rec.body.data(), expect.data(),
                                 msg.size()))
            << "seq " << seq;
        EXPECT_EQ(0, std::memcmp(rec.body.data() + msg.size(),
                                 tag.data(), 16))
            << "seq " << seq;
    }
    EXPECT_EQ(engine.cpuRecords(), 1u);
    EXPECT_EQ(engine.offloadedRecords(), 1u);
}

TEST(EndToEnd, SelfRecycleFreesScratchpad)
{
    topo::Topology sys(systemSpec());
    Rng rng(6);

    const std::size_t len = 4096;
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), len);
    std::uint8_t key[16];
    rng.fill(key, 16);

    for (int round = 0; round < 20; ++round) {
        const Addr sbuf = sys.slot(0).driver.alloc(len);
        const Addr dbuf = sys.slot(0).driver.alloc(len + kPageSize);
        sys.memory().writeSync(sbuf, plain.data(), len);

        compcpy::CompCpyParams params;
        params.sbuf = sbuf;
        params.dbuf = dbuf;
        params.size = len;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = 1000 + round;
        std::memcpy(params.key, key, 16);
        params.iv[0] = static_cast<std::uint8_t>(round);

        sys.slot(0).queue.run(params);
        sys.slot(0).engine.useSync(
            dbuf, divCeil(len + 16, kPageSize) * kPageSize);
        sys.slot(0).driver.release(sbuf, len);
        sys.slot(0).driver.release(dbuf, len + kPageSize);
    }

    // Every offload's pages must have recycled via the USE-side
    // flush-induced writebacks.
    EXPECT_EQ(sys.slot(0).device.scratchpad().livePages(), 0u);
    EXPECT_GT(sys.slot(0).device.scratchpad().stats().self_recycles, 0u);
    EXPECT_EQ(sys.slot(0).device.scratchpad().stats().force_recycles, 0u);
    EXPECT_EQ(sys.slot(0).engine.stats().force_recycles, 0u);
}

} // namespace
