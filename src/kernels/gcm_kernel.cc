#include "kernels/gcm_kernel.h"

#include <cstring>

#include "common/log.h"
#include "common/types.h"

namespace sd::kernels {

namespace {

/** AES blocks in one 64 B line. */
constexpr std::size_t kLineBlocks = kCacheLineSize / kAesBlockBytes;

/** @p x * H^k (1 <= k <= 4) on the table or scalar tier. */
Block128
mulByPower(const GcmLinePowers &pw, std::size_t k, const Block128 &x)
{
    if (pw.key.tier == KernelTier::kTable)
        return detail::gfMulShoup8(pw.key.mul8.data() + 256 * (k - 1), x);
    return gfMulScalar(x, pw.h[k - 1]);
}

} // namespace

void
gcmLinePowersInit(GcmLinePowers &out, const Block128 &h,
                  std::size_t message_len)
{
    SD_ASSERT(message_len > 0, "empty GCM message");
    out.key = ghashKeyInit(h);
    const std::size_t lines = divCeil(message_len, kCacheLineSize);
    const std::size_t last_blocks = divCeil(
        message_len - (lines - 1) * kCacheLineSize, kAesBlockBytes);
    out.stride.resize(lines);
    if (out.key.tier == KernelTier::kNative) {
        detail::gcmLinePowersNi(out, last_blocks);
        return;
    }
    out.h[0] = h;
    for (std::size_t k = 1; k < kLineBlocks; ++k)
        out.h[k] = gfMulByH(out.key, out.h[k - 1]);
    // The last line's blocks end right before the length block; each
    // earlier line's stride is the next one's times H^(its blocks).
    out.stride[lines - 1] = h;
    std::size_t next_blocks = last_blocks;
    for (std::size_t l = lines - 1; l-- > 0;) {
        out.stride[l] = mulByPower(out, next_blocks, out.stride[l + 1]);
        next_blocks = kLineBlocks;
    }
}

Block128
gcmLine(const AesKey &aes, const GcmLinePowers &powers,
        const std::uint8_t iv12[12], std::size_t line,
        const std::uint8_t *in, std::uint8_t *out, std::size_t len)
{
    SD_ASSERT(len > 0 && len <= kCacheLineSize, "not a line's length");
    SD_ASSERT(line < powers.stride.size(), "line outside the record");
    // The powers' tier picks the implementation: native powers are in
    // the polynomial domain, which only the native kernel reads.
    if (powers.key.tier == KernelTier::kNative)
        return detail::gcmLineNi(aes, powers, iv12, line, in, out, len);

    const std::size_t nblocks = divCeil(len, kAesBlockBytes);
    std::uint8_t cipher[kCacheLineSize];
    aesCtrKeystream(aes, iv12,
                    2 + static_cast<std::uint32_t>(line * kLineBlocks),
                    nblocks, cipher);
    for (std::size_t i = 0; i < len; ++i)
        cipher[i] ^= in[i];
    std::memset(cipher + len, 0, kCacheLineSize - len); // GHASH pads
    std::memcpy(out, cipher, len);

    Block128 sum{};
    for (std::size_t b = 0; b < nblocks; ++b)
        sum = sum ^ mulByPower(powers, nblocks - b,
                               Block128::load(cipher + b * kAesBlockBytes));
    return gfMulVia(powers.key.tier, sum, powers.stride[line]);
}

} // namespace sd::kernels
