/**
 * @file
 * GHASH over GF(2^128) as specified in NIST SP 800-38D. Supports the
 * stride-4 precomputed powers of H the SmartDIMM TLS DSA uses to break
 * the serial dependency chain between 64-byte cachelines (Sec. V-A).
 *
 * Field multiplications route through the dispatched kernel layer
 * (src/kernels): the streaming multiply-by-H uses the per-key Shoup
 * 8-bit table (or PCLMULQDQ), general products (powers of H,
 * positional folds) use the 4-bit table or PCLMULQDQ tier. The free
 * function gfMul() remains the always-compiled bit-serial reference.
 */

#ifndef SD_CRYPTO_GHASH_H
#define SD_CRYPTO_GHASH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/ghash_kernel.h"

namespace sd::crypto {

/** A 128-bit GF(2^128) element: the kernel layer's type. */
using Gf128 = kernels::Block128;

/**
 * Carry-less multiply in GF(2^128) with the GCM polynomial — the
 * bit-serial scalar reference (the kernel tiers are tested against
 * it; use Ghash for the fast paths).
 */
inline constexpr auto &gfMul = kernels::gfMulScalar;

/**
 * Upper bound on the powers of H one TLS record can need: a 16 KB
 * maximum fragment is 1024 AES blocks plus the GHASH length block.
 * Ghash reserves this many entries up front so the powers table never
 * reallocates mid-record.
 */
inline constexpr std::size_t kGhashMaxRecordPowers = 16384 / 16 + 1;

/**
 * Incremental GHASH accumulator.
 *
 * The streaming form computes Y_i = (Y_{i-1} ^ X_i) * H. The DSA form
 * instead exploits linearity: the digest of n blocks equals
 * XOR_i X_i * H^(n-i), so blocks can be folded in *any order* once
 * their position (and hence the needed power of H) is known. That is
 * exactly why the paper precomputes powers of H in strides of 4 — each
 * 64-byte cacheline covers 4 AES blocks at a known block offset.
 */
class Ghash
{
  public:
    /** @param h hash subkey (AES_K(0^128)). */
    explicit Ghash(const Gf128 &h);

    /** Streaming: fold one 16-byte block in sequence order. */
    void update(const std::uint8_t block[16]);

    /**
     * Streaming: fold @p nblocks contiguous full 16-byte blocks, same
     * digest as nblocks update() calls but routed through the batched
     * kernel (4-block aggregated reduction on the table tier).
     */
    void updateBlocks(const std::uint8_t *blocks, std::size_t nblocks);

    /** Streaming digest so far. */
    Gf128 digest() const { return y_; }

    /** Reset to the empty digest. */
    void reset() { y_ = Gf128{}; }

    /**
     * @return H^k (k >= 1), extending the cached table on demand.
     * Warm lookups (every call after the table reaches the record's
     * block count) stay inline — this sits on the per-line DSA path.
     */
    const Gf128 &
    power(std::size_t k)
    {
        // k == 0 routes to the slow path, which rejects it.
        return k - 1 < powers_.size() ? powers_[k - 1]
                                      : extendPowers(k);
    }

    /**
     * Positional fold: contribution of @p block at position @p index
     * (0-based) within a message of @p total_blocks blocks, i.e.
     * block * H^(total_blocks - index). XOR of all contributions gives
     * the same digest as streaming over the whole message.
     */
    Gf128 positional(const std::uint8_t block[16], std::size_t index,
                     std::size_t total_blocks);

  private:
    /** Grow the powers table up to H^k and return it. */
    const Gf128 &extendPowers(std::size_t k);

    kernels::GhashKey key_; ///< H + tier-specific precomputation
    Gf128 y_{};
    std::vector<Gf128> powers_; ///< powers_[k-1] = H^k
};

} // namespace sd::crypto

#endif // SD_CRYPTO_GHASH_H
