/**
 * @file
 * GHASH over GF(2^128) as specified in NIST SP 800-38D, streaming
 * form (the software path's one-shot GCM).
 *
 * Field multiplications route through the dispatched kernel layer
 * (src/kernels): the streaming multiply-by-H uses the per-key Shoup
 * 8-bit table (or PCLMULQDQ). The free function gfMul() remains the
 * always-compiled bit-serial reference. The TLS DSA's out-of-order
 * form, with the stride-4 powers of H, is kernels/gcm_kernel.h.
 */

#ifndef SD_CRYPTO_GHASH_H
#define SD_CRYPTO_GHASH_H

#include <cstddef>
#include <cstdint>

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
 * Streaming GHASH accumulator: Y_i = (Y_{i-1} ^ X_i) * H.
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

  private:
    kernels::GhashKey key_; ///< H + tier-specific precomputation
    Gf128 y_{};
};

} // namespace sd::crypto

#endif // SD_CRYPTO_GHASH_H
