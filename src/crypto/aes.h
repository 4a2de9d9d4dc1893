/**
 * @file
 * AES block cipher (FIPS-197), 128- and 256-bit keys. This is the
 * functional reference both for the on-CPU (AES-NI stand-in) path and
 * for the SmartDIMM TLS DSA; correctness is checked against FIPS-197
 * and NIST SP 800-38D test vectors in the test suite.
 *
 * The data transformation is delegated to the dispatched kernel layer
 * (src/kernels): a byte-wise scalar reference, a T-table tier and an
 * AES-NI tier all produce identical bytes — speed of each *placement*
 * still comes from calibrated cost models, the kernels only cut the
 * repo's own wall-clock time.
 */

#ifndef SD_CRYPTO_AES_H
#define SD_CRYPTO_AES_H

#include <cstddef>
#include <cstdint>

#include "kernels/aes_kernel.h"

namespace sd::crypto {

/** AES block size in bytes. */
inline constexpr std::size_t kAesBlockSize = 16;

/**
 * Expanded-key AES encryptor. Decryption is not needed anywhere in the
 * stack (GCM uses the forward cipher in both directions).
 */
class Aes
{
  public:
    /** Key sizes supported. */
    enum class KeySize { k128, k256 };

    /**
     * Expand @p key.
     * @param key raw key bytes (16 or 32 depending on @p size).
     */
    Aes(const std::uint8_t *key, KeySize size);

    /** Encrypt one 16-byte block (in-place allowed). */
    void encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;

    /** Number of rounds (10 for AES-128, 14 for AES-256). */
    int rounds() const { return key_.rounds; }

    /** Dispatched kernel key, for batched entry points (CTR). */
    const kernels::AesKey &kernelKey() const { return key_; }

  private:
    kernels::AesKey key_;
};

} // namespace sd::crypto

#endif // SD_CRYPTO_AES_H
