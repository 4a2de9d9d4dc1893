/**
 * @file
 * TLS 1.3-style record protection: a 5-byte record header, AES-GCM
 * body encryption with a per-record nonce derived from a static IV and
 * the record sequence number, and a 16-byte trailing tag. This is the
 * ULP layer the paper offloads (Sec. II / V-A).
 */

#ifndef SD_CRYPTO_TLS_RECORD_H
#define SD_CRYPTO_TLS_RECORD_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/aes_gcm.h"

namespace sd::crypto {

/** Record header size (type + legacy version + length). */
inline constexpr std::size_t kTlsHeaderSize = 5;

/** Tag trailer size. */
inline constexpr std::size_t kTlsTagSize = 16;

/** Maximum plaintext fragment per record (TLS 1.3 limit). */
inline constexpr std::size_t kTlsMaxFragment = 16384;

/** Per-record nonce: @p static_iv XOR the big-endian sequence number
 *  @p seq in its low 8 bytes. */
GcmIv tlsNonce(const GcmIv &static_iv, std::uint64_t seq);

/** A protected record: header || ciphertext || tag. */
struct TlsRecord
{
    std::vector<std::uint8_t> wire;

    std::size_t payloadLen() const
    {
        return wire.size() - kTlsHeaderSize - kTlsTagSize;
    }
};

/**
 * One direction of a TLS connection: key, static IV and a running
 * sequence number.
 */
class TlsSession
{
  public:
    /** Derive a session from key material (AES-128-GCM suite). */
    TlsSession(const std::uint8_t key[16], const GcmIv &static_iv);

    /** Per-record nonce (tlsNonce of the static IV). */
    GcmIv nonceFor(std::uint64_t seq) const
    {
        return tlsNonce(static_iv_, seq);
    }

    /** Protect @p len bytes of plaintext into a full record. */
    TlsRecord protect(const std::uint8_t *plain, std::size_t len);

    /**
     * Unprotect a record produced by a peer with the same keys.
     * @return plaintext, or empty vector on authentication failure.
     */
    std::vector<std::uint8_t> unprotect(const TlsRecord &record);

    /** Sequence number of the next record to be protected. */
    std::uint64_t txSeq() const { return tx_seq_; }

    /** Key context — what the CPU hands to SmartDIMM's config space. */
    const GcmContext &context() const { return ctx_; }

  private:
    GcmContext ctx_;
    GcmIv static_iv_;
    std::uint64_t tx_seq_ = 0;
    std::uint64_t rx_seq_ = 0;
};

} // namespace sd::crypto

#endif // SD_CRYPTO_TLS_RECORD_H
