/**
 * @file
 * Kernel parity suite: every compiled tier must produce bit-identical
 * results. NIST SP 800-38D example vectors run against each available
 * tier, and seeded fuzz runs diff the fast tiers (table, native when
 * the CPU supports it) against the scalar reference — ciphertext, tag,
 * GHASH digests and raw field products alike. This is the guard behind
 * the dispatch invariant that tiers only change wall-clock speed.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "crypto/aes_gcm.h"
#include "crypto/ghash.h"
#include "crypto/tls_record.h"
#include "kernels/aes_kernel.h"
#include "kernels/dispatch.h"
#include "kernels/ghash_kernel.h"

namespace {

using sd::Rng;
using sd::crypto::Aes;
using sd::crypto::GcmContext;
using sd::crypto::GcmIv;
using sd::crypto::GcmTag;
using sd::crypto::Gf128;
using sd::crypto::Ghash;
using sd::crypto::IncrementalGcm;
using sd::kernels::KernelTier;

std::vector<std::uint8_t>
hexBytes(const char *hex)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; hex[i] && hex[i + 1]; i += 2) {
        unsigned v;
        std::sscanf(hex + i, "%2x", &v);
        out.push_back(static_cast<std::uint8_t>(v));
    }
    return out;
}

/** RAII tier pin so a failing assertion can't leak the override. */
struct ForcedTier
{
    explicit ForcedTier(KernelTier tier) { sd::kernels::forceTier(tier); }
    ~ForcedTier() { sd::kernels::clearForcedTier(); }
};

struct GcmResult
{
    std::vector<std::uint8_t> cipher;
    GcmTag tag{};
};

GcmResult
gcmEncryptOn(KernelTier tier, const std::vector<std::uint8_t> &key,
             const GcmIv &iv, const std::vector<std::uint8_t> &plain,
             const std::vector<std::uint8_t> &aad)
{
    ForcedTier pin(tier);
    GcmContext ctx(key.data(), Aes::KeySize::k128);
    GcmResult r;
    r.cipher.resize(plain.size());
    r.tag = ctx.encrypt(iv, plain.data(), plain.size(), r.cipher.data(),
                        aad.empty() ? nullptr : aad.data(), aad.size());
    return r;
}

// --- NIST SP 800-38D example vectors, per tier ---------------------

struct NistCase
{
    const char *key;
    const char *iv;
    const char *plain;
    const char *aad;
    const char *cipher;
    const char *tag;
};

const NistCase kNistCases[] = {
    // Case 1: empty message.
    {"00000000000000000000000000000000", "000000000000000000000000", "",
     "", "", "58e2fccefa7e3061367f1d57a4e7455a"},
    // Case 2: one zero block.
    {"00000000000000000000000000000000", "000000000000000000000000",
     "00000000000000000000000000000000", "",
     "0388dace60b6a392f328c2b971b2fe78",
     "ab6e47d42cec13bdf53a67b21257bddf"},
    // Case 3: four blocks.
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "d9313225f88406e5a55909c5aff5269a"
     "86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525"
     "b16aedf5aa0de657ba637b391aafd255",
     "",
     "42831ec2217774244b7221b784d0d49c"
     "e3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa05"
     "1ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    // Case 4: partial final block + AAD.
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "d9313225f88406e5a55909c5aff5269a"
     "86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525"
     "b16aedf5aa0de657ba637b39",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "42831ec2217774244b7221b784d0d49c"
     "e3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa05"
     "1ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"},
};

TEST(KernelParity, NistVectorsEveryAvailableTier)
{
    for (const KernelTier tier : sd::kernels::availableTiers()) {
        SCOPED_TRACE(sd::kernels::tierName(tier));
        for (const NistCase &c : kNistCases) {
            const auto key = hexBytes(c.key);
            const auto ivb = hexBytes(c.iv);
            GcmIv iv{};
            std::memcpy(iv.data(), ivb.data(), 12);
            const auto plain = hexBytes(c.plain);
            const auto aad = hexBytes(c.aad);
            const auto got =
                gcmEncryptOn(tier, key, iv, plain, aad);
            EXPECT_EQ(hexBytes(c.cipher), got.cipher);
            const auto expect_tag = hexBytes(c.tag);
            EXPECT_EQ(0, std::memcmp(got.tag.data(), expect_tag.data(),
                                     16));
        }
    }
}

// --- Seeded fuzz: fast tiers vs the scalar oracle ------------------

TEST(KernelParity, FuzzGcmAgainstScalar)
{
    Rng rng(0x5eed);
    for (int round = 0; round < 24; ++round) {
        std::vector<std::uint8_t> key(16);
        rng.fill(key.data(), key.size());
        GcmIv iv{};
        rng.fill(iv.data(), iv.size());
        // Lengths straddle block boundaries and the CTR batch size.
        const std::size_t len = 1 + rng.below(4096 + 3);
        std::vector<std::uint8_t> plain(len);
        rng.fill(plain.data(), plain.size());
        std::vector<std::uint8_t> aad(rng.below(48));
        if (!aad.empty())
            rng.fill(aad.data(), aad.size());

        const auto ref =
            gcmEncryptOn(KernelTier::kScalar, key, iv, plain, aad);
        for (const KernelTier tier : sd::kernels::availableTiers()) {
            if (tier == KernelTier::kScalar)
                continue;
            SCOPED_TRACE(sd::kernels::tierName(tier));
            const auto got = gcmEncryptOn(tier, key, iv, plain, aad);
            ASSERT_EQ(ref.cipher, got.cipher) << "round " << round;
            ASSERT_EQ(0,
                      std::memcmp(ref.tag.data(), got.tag.data(), 16))
                << "round " << round;
        }
    }
}

TEST(KernelParity, FuzzGhashStateAgainstScalar)
{
    Rng rng(0xface);
    for (int round = 0; round < 16; ++round) {
        std::uint8_t hbytes[16];
        rng.fill(hbytes, 16);
        const Gf128 h = Gf128::load(hbytes);
        const std::size_t nblocks = 1 + rng.below(64);
        std::vector<std::uint8_t> blocks(nblocks * 16);
        rng.fill(blocks.data(), blocks.size());

        Gf128 ref_stream;
        Gf128 ref_batch;
        {
            ForcedTier pin(KernelTier::kScalar);
            Ghash g(h);
            for (std::size_t b = 0; b < nblocks; ++b)
                g.update(blocks.data() + 16 * b);
            ref_stream = g.digest();
            Ghash gb(h);
            gb.updateBlocks(blocks.data(), nblocks);
            ref_batch = gb.digest();
        }
        ASSERT_EQ(ref_stream, ref_batch);

        for (const KernelTier tier : sd::kernels::availableTiers()) {
            if (tier == KernelTier::kScalar)
                continue;
            SCOPED_TRACE(sd::kernels::tierName(tier));
            ForcedTier pin(tier);
            // Per-block streaming digest.
            Ghash g(h);
            for (std::size_t b = 0; b < nblocks; ++b)
                g.update(blocks.data() + 16 * b);
            ASSERT_EQ(ref_stream, g.digest()) << "round " << round;
            // Batched (aggregated-reduction) digest.
            Ghash gb(h);
            gb.updateBlocks(blocks.data(), nblocks);
            ASSERT_EQ(ref_stream, gb.digest()) << "round " << round;
        }
    }
}

TEST(KernelParity, FuzzFieldMulAgainstScalar)
{
    Rng rng(0xb10c);
    for (int round = 0; round < 64; ++round) {
        std::uint8_t raw[32];
        rng.fill(raw, 32);
        sd::kernels::Block128 a;
        sd::kernels::Block128 b;
        std::memcpy(&a.hi, raw + 0, 8);
        std::memcpy(&a.lo, raw + 8, 8);
        std::memcpy(&b.hi, raw + 16, 8);
        std::memcpy(&b.lo, raw + 24, 8);
        const auto ref = sd::kernels::gfMulScalar(a, b);
        for (const KernelTier tier : sd::kernels::availableTiers()) {
            SCOPED_TRACE(sd::kernels::tierName(tier));
            const auto got = sd::kernels::gfMulVia(tier, a, b);
            ASSERT_EQ(ref.hi, got.hi) << "round " << round;
            ASSERT_EQ(ref.lo, got.lo) << "round " << round;
        }
    }
}

TEST(KernelParity, FuzzAesBlockAgainstScalar)
{
    Rng rng(0xae5);
    for (int round = 0; round < 32; ++round) {
        const std::size_t key_bytes = (round % 2) ? 32 : 16;
        std::vector<std::uint8_t> key(key_bytes);
        rng.fill(key.data(), key.size());
        std::uint8_t in[16];
        rng.fill(in, 16);

        std::uint8_t ref[16];
        {
            ForcedTier pin(KernelTier::kScalar);
            const auto k = sd::kernels::aesKeyInit(key.data(), key_bytes);
            sd::kernels::aesEncryptBlock(k, in, ref);
        }
        for (const KernelTier tier : sd::kernels::availableTiers()) {
            if (tier == KernelTier::kScalar)
                continue;
            SCOPED_TRACE(sd::kernels::tierName(tier));
            ForcedTier pin(tier);
            const auto k = sd::kernels::aesKeyInit(key.data(), key_bytes);
            std::uint8_t got[16];
            sd::kernels::aesEncryptBlock(k, in, got);
            ASSERT_EQ(0, std::memcmp(ref, got, 16)) << "round " << round;
        }
    }
}

TEST(KernelParity, FuzzCtrKeystreamAgainstScalar)
{
    Rng rng(0xc123);
    for (int round = 0; round < 16; ++round) {
        std::vector<std::uint8_t> key(16);
        rng.fill(key.data(), key.size());
        std::uint8_t iv[12];
        rng.fill(iv, 12);
        const std::size_t nblocks = 1 + rng.below(21);
        const std::uint32_t first =
            static_cast<std::uint32_t>(2 + rng.below(1000));

        std::vector<std::uint8_t> ref(nblocks * 16);
        {
            ForcedTier pin(KernelTier::kScalar);
            const auto k = sd::kernels::aesKeyInit(key.data(), 16);
            sd::kernels::aesCtrKeystream(k, iv, first, nblocks,
                                         ref.data());
        }
        for (const KernelTier tier : sd::kernels::availableTiers()) {
            if (tier == KernelTier::kScalar)
                continue;
            SCOPED_TRACE(sd::kernels::tierName(tier));
            ForcedTier pin(tier);
            const auto k = sd::kernels::aesKeyInit(key.data(), 16);
            std::vector<std::uint8_t> got(nblocks * 16);
            sd::kernels::aesCtrKeystream(k, iv, first, nblocks,
                                         got.data());
            ASSERT_EQ(ref, got) << "round " << round;
        }
    }
}

/**
 * Feed a @p len-byte record's cachelines to IncrementalGcm in a
 * shuffled order on every tier; ciphertext and tag must match the
 * scalar one-shot result.
 */
void
expectShuffledIncrementalMatchesOneShot(Rng &rng, std::size_t len)
{
    SCOPED_TRACE(len);
    std::vector<std::uint8_t> key(16);
    rng.fill(key.data(), key.size());
    GcmIv iv{};
    rng.fill(iv.data(), iv.size());
    std::vector<std::uint8_t> plain(len);
    rng.fill(plain.data(), plain.size());

    const auto ref = gcmEncryptOn(KernelTier::kScalar, key, iv, plain,
                                  {});
    for (const KernelTier tier : sd::kernels::availableTiers()) {
        SCOPED_TRACE(sd::kernels::tierName(tier));
        ForcedTier pin(tier);
        GcmContext ctx(key.data(), Aes::KeySize::k128);
        IncrementalGcm inc(ctx, iv, len);
        std::vector<std::uint8_t> cipher(len);
        std::vector<std::size_t> order(inc.lineCount());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (const std::size_t line : order) {
            const std::size_t off = line * 64;
            inc.processLine(line, plain.data() + off,
                            cipher.data() + off);
        }
        EXPECT_EQ(ref.cipher, cipher);
        const GcmTag tag = inc.finalTag();
        EXPECT_EQ(0, std::memcmp(ref.tag.data(), tag.data(), 16));
    }
}

// Out-of-order incremental GCM (the DSA path) must match the one-shot
// result on every tier — exercises the line kernel and its power table.
TEST(KernelParity, IncrementalPermutationEveryTier)
{
    Rng rng(0xd15a);
    expectShuffledIncrementalMatchesOneShot(rng, 1024 + 32);
}

// Record shapes whose last line ends inside an AES block (61 B: one
// short line; 4096 + 13 B: a 13-byte line after 64 full ones), and the
// largest TLS record (16 KB, every power the table can need).
TEST(KernelParity, IncrementalRecordShapesEveryTier)
{
    Rng rng(0x5eed);
    for (const std::size_t len :
         {std::size_t{61}, std::size_t{4096 + 13},
          sd::crypto::kTlsMaxFragment})
        expectShuffledIncrementalMatchesOneShot(rng, len);
}

} // namespace
