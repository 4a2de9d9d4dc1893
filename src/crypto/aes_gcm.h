/**
 * @file
 * AES-GCM authenticated encryption (NIST SP 800-38D), in two forms:
 *
 *  - GcmContext: one-shot encrypt/decrypt for the software (CPU) path.
 *  - IncrementalGcm: per-64-byte-cacheline processing in *arbitrary
 *    order*, mirroring the SmartDIMM TLS DSA of Sec. V-A where rdCAS
 *    commands may arrive out of order. Correctness: the test suite
 *    asserts out-of-order == one-shot on random permutations.
 *
 * IncrementalGcm holds the record's power table the way the DSA's GF
 * multiplier of Fig. 7 does: H^1..H^4 plus one stride-4 power per
 * line (kernels/gcm_kernel.h). Each line is one fused kernel call that
 * encrypts its up to four counter blocks side by side, folds its
 * ciphertext blocks with H^4..H^1 into one sum and multiplies that sum
 * by the line's stride power; a 4 KB record's table takes 66
 * multiplies where a power per block took 256.
 */

#ifndef SD_CRYPTO_AES_GCM_H
#define SD_CRYPTO_AES_GCM_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/aes.h"
#include "crypto/ghash.h"
#include "kernels/gcm_kernel.h"

namespace sd::crypto {

/** GCM standard 96-bit IV. */
using GcmIv = std::array<std::uint8_t, 12>;

/** 128-bit authentication tag. */
using GcmTag = std::array<std::uint8_t, 16>;

/** One-shot AES-GCM context bound to a key. */
class GcmContext
{
  public:
    /** Bind to an AES-128 key. */
    GcmContext(const std::uint8_t *key, Aes::KeySize size);

    /**
     * Encrypt @p len bytes of @p plain into @p cipher (may alias) and
     * produce the authentication tag over optional @p aad.
     */
    GcmTag encrypt(const GcmIv &iv, const std::uint8_t *plain,
                   std::size_t len, std::uint8_t *cipher,
                   const std::uint8_t *aad = nullptr,
                   std::size_t aad_len = 0) const;

    /**
     * Decrypt and authenticate. @return true when the tag verifies;
     * on failure @p plain contents are unspecified.
     */
    bool decrypt(const GcmIv &iv, const std::uint8_t *cipher,
                 std::size_t len, const GcmTag &tag, std::uint8_t *plain,
                 const std::uint8_t *aad = nullptr,
                 std::size_t aad_len = 0) const;

    /** Hash subkey H = AES_K(0^128) — sent to the DSA config space. */
    Gf128 hashSubkey() const { return h_; }

    /**
     * Encrypted IV block: AES_K(J0) where J0 = IV || 0^31 || 1. The
     * paper computes this on the CPU with a single AES-NI invocation
     * and ships it to the DSA (Fig. 7); XORing it with the final GHASH
     * gives the tag.
     */
    std::array<std::uint8_t, 16> encryptedIv(const GcmIv &iv) const;

    const Aes &cipher() const { return aes_; }

  private:
    Aes aes_;
    Gf128 h_;
};

/**
 * Out-of-order incremental GCM over 64-byte cachelines.
 *
 * A message of `n` cachelines may have each line submitted exactly
 * once, in any order. The engine tracks the XOR-accumulated partial
 * tag (the Scratchpad-resident "partial tag" of Fig. 7) and produces
 * the final tag after all lines are in. Lines are full 64 bytes except
 * possibly the last.
 */
class IncrementalGcm
{
  public:
    /**
     * @param ctx key context (H and EIV are derived from it, standing
     *        in for the CPU-computed MMIO config write)
     * @param iv per-message IV
     * @param message_len total plaintext bytes
     */
    IncrementalGcm(const GcmContext &ctx, const GcmIv &iv,
                   std::size_t message_len);

    /** Number of 64-byte cachelines in the message. */
    std::size_t lineCount() const { return line_count_; }

    /**
     * Encrypt cacheline @p line_index (64 bytes, or the final partial
     * line). @p in/@p out may alias. Each line must be submitted
     * exactly once.
     */
    void processLine(std::size_t line_index, const std::uint8_t *in,
                     std::uint8_t *out);

    /** @return true once every line has been processed. */
    bool complete() const { return lines_done_ == line_count_; }

    /** Final tag; only valid when complete(). */
    GcmTag finalTag() const;

  private:
    const GcmContext &ctx_;
    GcmIv iv_;
    std::size_t message_len_;
    std::size_t line_count_;
    std::size_t lines_done_ = 0;
    std::vector<bool> seen_;
    kernels::GcmLinePowers powers_; ///< H^1..H^4 and per-line strides
    Gf128 partial_tag_{}; ///< XOR of positional GHASH contributions
    std::array<std::uint8_t, 16> eiv_;
};

} // namespace sd::crypto

#endif // SD_CRYPTO_AES_GCM_H
