/**
 * @file
 * Line-level AES-GCM kernel: the TLS DSA's unit of work (Fig. 7). One
 * call CTR-encrypts a 64 B cacheline (up to four AES blocks, run side
 * by side) and returns the line's positional GHASH contribution, so
 * lines can be fed in any order and their contributions XORed.
 *
 * The per-record power table is the one the DSA's GF multiplier holds:
 * H^1..H^4, which a line's blocks are multiplied by before they are
 * summed (an aggregated fold), and one stride-4 power per line, which
 * the line's sum is multiplied by. Block b of line L sits at GHASH
 * position 4L + b of a record of T blocks (the length block included),
 * so it needs H^(T - 4L - b) = H^(n_L - b) * stride[L], where n_L is
 * the line's block count and stride[L] = H^(T - 4L - n_L). Consecutive
 * strides differ by H^4 (by H^n for the record's last line), so a
 * 4 KB record's table costs 66 multiplies instead of 256.
 *
 * Tiers:
 *  - native: AES-NI on the line's four counter blocks interleaved,
 *    counter blocks built in registers; four PCLMUL products
 *    accumulated unreduced and reduced once; the power table lives in
 *    the carry-less polynomial domain, so neither building nor using
 *    it bit-reverses H's powers (see native_x86.cc).
 *  - table, scalar: the existing primitives in a loop (batched CTR
 *    keystream, Shoup 8-bit tables for H^1..H^4 on the table tier, the
 *    general multiply for the stride), so parity holds by construction.
 */

#ifndef SD_KERNELS_GCM_KERNEL_H
#define SD_KERNELS_GCM_KERNEL_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/aes_kernel.h"
#include "kernels/ghash_kernel.h"

namespace sd::kernels {

/**
 * One record's GHASH powers for line-level folds. Values are in the
 * bound tier's domain: the carry-less polynomial domain on the native
 * tier, GCM bit order on the others; only the kernels read them.
 */
struct GcmLinePowers
{
    /** H, the bound tier, and the table tier's tables of H^1..H^4. */
    GhashKey key;
    /** h[k - 1] = H^k. */
    std::array<Block128, 4> h{};
    /** stride[L] = H^(blocks after line L, the length block included). */
    std::vector<Block128> stride;
};

/**
 * Build @p out for a record of @p message_len bytes (> 0) under hash
 * subkey @p h, bound to the currently active (or forced) tier.
 */
void gcmLinePowersInit(GcmLinePowers &out, const Block128 &h,
                       std::size_t message_len);

/**
 * Encrypt line @p line of a record: @p len bytes (64, or fewer for the
 * record's last line) of @p in into @p out (may alias), XORed with the
 * keystream of counter blocks iv || be32(2 + 4 * line + b). @return the
 * line's GHASH contribution in GCM bit order,
 *   (C_0 * H^n ^ C_1 * H^(n-1) ^ ... ^ C_(n-1) * H) * stride[line],
 * with n = ceil(len / 16) and a partial last block zero-padded.
 */
Block128 gcmLine(const AesKey &aes, const GcmLinePowers &powers,
                 const std::uint8_t iv12[12], std::size_t line,
                 const std::uint8_t *in, std::uint8_t *out,
                 std::size_t len);

namespace detail {

/** Native tier of gcmLinePowersInit(): H's powers in the polynomial
 *  domain; only call when nativeSupported(). */
void gcmLinePowersNi(GcmLinePowers &out, std::size_t last_blocks);

/** Native tier of gcmLine(); only call when nativeSupported(). */
Block128 gcmLineNi(const AesKey &aes, const GcmLinePowers &powers,
                   const std::uint8_t iv12[12], std::size_t line,
                   const std::uint8_t *in, std::uint8_t *out,
                   std::size_t len);

} // namespace detail

} // namespace sd::kernels

#endif // SD_KERNELS_GCM_KERNEL_H
