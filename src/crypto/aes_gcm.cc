#include "crypto/aes_gcm.h"

#include <cstring>

#include "common/log.h"
#include "common/types.h"
#include "kernels/aes_kernel.h"

namespace sd::crypto {

namespace {

/**
 * CTR keystream blocks generated per kernel call. Eight blocks keep
 * the AES-NI pipeline full and amortise counter/table setup on the
 * table tier; the tail call just shrinks.
 */
constexpr std::size_t kCtrBatchBlocks = 8;

/** Build J0 = IV || 0^31 || 1 for a 96-bit IV. */
void
buildJ0(const GcmIv &iv, std::uint8_t j0[16])
{
    std::memcpy(j0, iv.data(), 12);
    j0[12] = 0;
    j0[13] = 0;
    j0[14] = 0;
    j0[15] = 1;
}

/** GHASH length block: 64-bit AAD bits || 64-bit ciphertext bits. */
void
buildLengthBlock(std::size_t aad_len, std::size_t cipher_len,
                 std::uint8_t out[16])
{
    const std::uint64_t aad_bits = static_cast<std::uint64_t>(aad_len) * 8;
    const std::uint64_t c_bits = static_cast<std::uint64_t>(cipher_len) * 8;
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(aad_bits >> (56 - 8 * i));
    for (int i = 0; i < 8; ++i)
        out[8 + i] = static_cast<std::uint8_t>(c_bits >> (56 - 8 * i));
}

/**
 * CTR-transform @p len bytes (XOR with the keystream starting at
 * block counter 2, the GCM convention for a 96-bit IV), batching
 * keystream generation through the dispatched kernel.
 */
void
ctrTransform(const kernels::AesKey &key, const GcmIv &iv,
             const std::uint8_t *in, std::size_t len, std::uint8_t *out)
{
    std::uint8_t ks[kCtrBatchBlocks * kAesBlockSize];
    std::size_t off = 0;
    while (off < len) {
        const std::size_t blocks_left =
            divCeil(len - off, kAesBlockSize);
        const std::size_t nblk =
            std::min(kCtrBatchBlocks, blocks_left);
        const std::uint32_t first_ctr =
            2 + static_cast<std::uint32_t>(off / kAesBlockSize);
        kernels::aesCtrKeystream(key, iv.data(), first_ctr, nblk, ks);
        const std::size_t chunk =
            std::min(len - off, nblk * kAesBlockSize);
        for (std::size_t i = 0; i < chunk; ++i)
            out[off + i] = in[off + i] ^ ks[i];
        off += chunk;
    }
}

} // namespace

GcmContext::GcmContext(const std::uint8_t *key, Aes::KeySize size)
    : aes_(key, size), h_{}
{
    std::uint8_t zero[16] = {};
    std::uint8_t hbytes[16];
    aes_.encryptBlock(zero, hbytes);
    h_ = Gf128::load(hbytes);
}

std::array<std::uint8_t, 16>
GcmContext::encryptedIv(const GcmIv &iv) const
{
    std::uint8_t j0[16];
    buildJ0(iv, j0);
    std::array<std::uint8_t, 16> eiv;
    aes_.encryptBlock(j0, eiv.data());
    return eiv;
}

GcmTag
GcmContext::encrypt(const GcmIv &iv, const std::uint8_t *plain,
                    std::size_t len, std::uint8_t *cipher,
                    const std::uint8_t *aad, std::size_t aad_len) const
{
    Ghash ghash(h_);

    // Fold AAD (zero-padded to block boundary).
    for (std::size_t off = 0; off < aad_len; off += kAesBlockSize) {
        std::uint8_t block[16] = {};
        const std::size_t n = std::min(kAesBlockSize, aad_len - off);
        std::memcpy(block, aad + off, n);
        ghash.update(block);
    }

    // CTR encryption (batched keystream), then the ciphertext fold.
    // Full blocks fold in place; only the final partial block needs
    // the zero-padded copy.
    ctrTransform(aes_.kernelKey(), iv, plain, len, cipher);
    const std::size_t full = len / kAesBlockSize;
    ghash.updateBlocks(cipher, full);
    const std::size_t off = full * kAesBlockSize;
    if (off < len) {
        std::uint8_t cblock[16] = {};
        std::memcpy(cblock, cipher + off, len - off);
        ghash.update(cblock);
    }

    std::uint8_t lenblock[16];
    buildLengthBlock(aad_len, len, lenblock);
    ghash.update(lenblock);

    const auto eiv = encryptedIv(iv);
    GcmTag tag;
    Gf128 digest = ghash.digest() ^ Gf128::load(eiv.data());
    digest.store(tag.data());
    return tag;
}

bool
GcmContext::decrypt(const GcmIv &iv, const std::uint8_t *cipher,
                    std::size_t len, const GcmTag &tag, std::uint8_t *plain,
                    const std::uint8_t *aad, std::size_t aad_len) const
{
    Ghash ghash(h_);
    for (std::size_t off = 0; off < aad_len; off += kAesBlockSize) {
        std::uint8_t block[16] = {};
        const std::size_t n = std::min(kAesBlockSize, aad_len - off);
        std::memcpy(block, aad + off, n);
        ghash.update(block);
    }
    const std::size_t full = len / kAesBlockSize;
    ghash.updateBlocks(cipher, full);
    const std::size_t off = full * kAesBlockSize;
    if (off < len) {
        std::uint8_t cblock[16] = {};
        std::memcpy(cblock, cipher + off, len - off);
        ghash.update(cblock);
    }
    std::uint8_t lenblock[16];
    buildLengthBlock(aad_len, len, lenblock);
    ghash.update(lenblock);

    const auto eiv = encryptedIv(iv);
    Gf128 digest = ghash.digest() ^ Gf128::load(eiv.data());
    GcmTag expect;
    digest.store(expect.data());

    // Constant-time-ish comparison (not a security claim in a sim).
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < expect.size(); ++i)
        diff |= static_cast<std::uint8_t>(expect[i] ^ tag[i]);
    if (diff != 0)
        return false;

    ctrTransform(aes_.kernelKey(), iv, cipher, len, plain);
    return true;
}

IncrementalGcm::IncrementalGcm(const GcmContext &ctx, const GcmIv &iv,
                               std::size_t message_len)
    : ctx_(ctx), iv_(iv), message_len_(message_len),
      line_count_(divCeil(message_len, kCacheLineSize)),
      seen_(line_count_, false), eiv_(ctx.encryptedIv(iv))
{
    kernels::gcmLinePowersInit(powers_, ctx.hashSubkey(), message_len);
}

void
IncrementalGcm::processLine(std::size_t line_index, const std::uint8_t *in,
                            std::uint8_t *out)
{
    SD_ASSERT(line_index < line_count_, "line index outside message");
    SD_ASSERT(!seen_[line_index], "cacheline processed twice");
    seen_[line_index] = true;
    ++lines_done_;

    const std::size_t line_off = line_index * kCacheLineSize;
    const std::size_t line_len =
        std::min(kCacheLineSize, message_len_ - line_off);
    partial_tag_ = partial_tag_ ^
        kernels::gcmLine(ctx_.cipher().kernelKey(), powers_, iv_.data(),
                         line_index, in, out, line_len);
}

GcmTag
IncrementalGcm::finalTag() const
{
    SD_ASSERT(complete(), "finalTag before all cachelines processed");
    std::uint8_t lenblock[16];
    buildLengthBlock(0, message_len_, lenblock);

    // The length block is the last GHASH block: it contributes * H^1.
    const Gf128 len_contrib = kernels::gfMulVia(
        powers_.key.tier, Gf128::load(lenblock), ctx_.hashSubkey());

    Gf128 digest = partial_tag_ ^ len_contrib ^ Gf128::load(eiv_.data());
    GcmTag tag;
    digest.store(tag.data());
    return tag;
}

} // namespace sd::crypto
