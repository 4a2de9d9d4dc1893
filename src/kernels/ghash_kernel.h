/**
 * @file
 * GF(2^128) multiplication kernels for GHASH (NIST SP 800-38D bit
 * order). Three tiers behind one interface:
 *
 *  - scalar: the original 128-iteration bit-serial shift/xor loop
 *    (moved here verbatim from crypto/ghash.cc; the reference).
 *  - table:  Shoup table-driven multiplication — a per-key 8-bit
 *    table (256 x 16 B) for the hot multiply-by-H, and a per-call
 *    4-bit table for general a*b (the GCM line kernel's stride
 *    multiply).
 *  - native: PCLMULQDQ carry-less multiply (see native_x86.cc).
 *
 * The kernel layer has no dependency on the crypto layer; its field
 * element type is crypto::Gf128.
 */

#ifndef SD_KERNELS_GHASH_KERNEL_H
#define SD_KERNELS_GHASH_KERNEL_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/dispatch.h"

namespace sd::kernels {

/** A 128-bit GF(2^128) element in GCM bit order (big-endian bytes). */
struct Block128
{
    std::uint64_t hi = 0; ///< bytes 0..7 (big-endian most significant)
    std::uint64_t lo = 0; ///< bytes 8..15

    bool operator==(const Block128 &) const = default;

    /** Load from 16 big-endian bytes. */
    static Block128
    load(const std::uint8_t bytes[16])
    {
        std::uint64_t hi;
        std::uint64_t lo;
        std::memcpy(&hi, bytes, 8);
        std::memcpy(&lo, bytes + 8, 8);
        return Block128{beToHost(hi), beToHost(lo)};
    }

    /** Store to 16 big-endian bytes. */
    void
    store(std::uint8_t bytes[16]) const
    {
        const std::uint64_t be_hi = beToHost(hi);
        const std::uint64_t be_lo = beToHost(lo);
        std::memcpy(bytes, &be_hi, 8);
        std::memcpy(bytes + 8, &be_lo, 8);
    }

    /** Big-endian <-> host conversion (an involution). */
    static std::uint64_t
    beToHost(std::uint64_t v)
    {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        return v;
#else
        return __builtin_bswap64(v);
#endif
    }

    /** XOR (addition in GF(2^128)). */
    Block128
    operator^(const Block128 &o) const
    {
        return Block128{hi ^ o.hi, lo ^ o.lo};
    }
};

/**
 * Per-key GHASH state: the hash subkey H plus whatever precomputation
 * the bound tier wants (the Shoup 8-bit table for kTable; the native
 * and scalar tiers need only H). The tier is captured at init time so
 * an object stays self-consistent even if the dispatch override moves
 * underneath it.
 */
struct GhashKey
{
    KernelTier tier = KernelTier::kScalar;
    Block128 h;
    /**
     * Shoup 8-bit tables for the table tier: 4 x 256 entries, where
     * mul8[256*p + b] = b * H^(p+1). The first 256 entries (H^1) serve
     * the streaming multiply; the higher powers feed the 4-block
     * aggregated fold in ghashFold().
     */
    std::vector<Block128> mul8;
};

/** Bind @p h under the currently active (or forced) tier. */
GhashKey ghashKeyInit(const Block128 &h);

/** Reference bit-serial multiply — the always-available oracle. */
Block128 gfMulScalar(const Block128 &a, const Block128 &b);

/**
 * Multiply @p x by the key's hash subkey H using the key's tier.
 * This is the streaming-GHASH hot path (one call per 16-byte block).
 */
Block128 gfMulByH(const GhashKey &key, const Block128 &x);

/**
 * General multiply a*b on @p tier. Used where the multiplicand varies:
 * the GCM line kernel's stride multiply and the length block's fold.
 */
Block128 gfMulVia(KernelTier tier, const Block128 &a, const Block128 &b);

/**
 * Streaming fold of @p nblocks contiguous full 16-byte blocks into
 * digest @p y; returns the new digest. Bit-identical to nblocks calls
 * of gfMulByH(key, y ^ load(block)), but the table tier uses 4-block
 * aggregated reduction — Y_{i+4} = (Y_i ^ X_0)*H^4 ^ X_1*H^3 ^
 * X_2*H^2 ^ X_3*H — so the four Shoup Horner chains run in parallel
 * instead of serialising on one dependency chain.
 */
Block128 ghashFold(const GhashKey &key, Block128 y,
                   const std::uint8_t *blocks, std::size_t nblocks);

namespace detail {

/** Table-tier multiply of @p x by the fixed multiplicand of the
 *  Shoup 8-bit table @p m (256 entries, one of GhashKey::mul8's). */
Block128 gfMulShoup8(const Block128 *m, const Block128 &x);

/** Table-tier general multiply (per-call Shoup 4-bit table). */
Block128 gfMulTable4(const Block128 &a, const Block128 &b);

/** Native (PCLMULQDQ) general multiply; only call when
 *  nativeSupported(). Defined in native_x86.cc. */
Block128 gfMulClmul(const Block128 &a, const Block128 &b);

} // namespace detail

} // namespace sd::kernels

#endif // SD_KERNELS_GHASH_KERNEL_H
