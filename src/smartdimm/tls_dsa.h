/**
 * @file
 * TLS (AES-GCM) DSA per Fig. 7. The CPU ships the key material, hash
 * subkey H and encrypted IV through the Config Memory; the GF
 * multiplier precomputes powers of H in strides of 4 so GHASH folds of
 * different cachelines are independent, letting rdCAS commands arrive
 * out of order. Each processed line XORs its GHASH contribution into
 * the message's partial tag; the final tag lands in the record
 * trailer once every line is in.
 */

#ifndef SD_SMARTDIMM_TLS_DSA_H
#define SD_SMARTDIMM_TLS_DSA_H

#include <memory>
#include <vector>

#include "common/types.h"
#include "crypto/aes_gcm.h"
#include "smartdimm/dsa.h"

namespace sd::smartdimm {

/**
 * Shared state of one TLS message offload: the incremental GCM engine
 * (modelling the AES-CTR pipeline + GHASH + partial-tag accumulator of
 * Fig. 7). A message spans one or more source pages; page jobs share
 * this object.
 */
class TlsMessageState
{
  public:
    /**
     * @param key 16-byte AES-128 key (context write)
     * @param iv per-record nonce (context write)
     * @param message_len plaintext bytes
     * @param line_latency DSA busy cycles per line
     * @param stats optional aggregate counters (buffer-device owned)
     */
    TlsMessageState(const std::uint8_t key[16], const crypto::GcmIv &iv,
                    std::size_t message_len, Cycles line_latency,
                    DsaStats *stats = nullptr);

    /** Encrypt global cacheline @p index of the message. */
    Cycles processLine(std::size_t index, const std::uint8_t *in,
                       std::uint8_t *out);

    bool complete() const { return gcm_.complete(); }
    std::size_t messageLen() const { return message_len_; }
    std::size_t lineCount() const { return gcm_.lineCount(); }

    /** Final 16-byte authentication tag (trailer contents). */
    crypto::GcmTag finalTag() const { return gcm_.finalTag(); }

  private:
    crypto::GcmContext ctx_;
    crypto::IncrementalGcm gcm_;
    std::size_t message_len_;
    Cycles line_latency_;
    DsaStats *stats_;
};

/**
 * The per-source-page DSA job: encrypts the page's slice of the
 * message and exposes result lines for the Scratchpad. The trailer
 * tag is appended to the result bytes of the page that contains
 * offset message_len.
 */
class TlsDsaJob : public DsaJob
{
  public:
    /**
     * @param state shared message state
     * @param page_index which 4 KB page of the message this job covers
     */
    TlsDsaJob(std::shared_ptr<TlsMessageState> state,
              std::size_t page_index);

    UlpKind kind() const override { return UlpKind::kTlsEncrypt; }
    bool ordered() const override { return false; }

    Cycles processLine(unsigned line, const std::uint8_t *data) override;
    bool complete() const override;
    bool resultLine(unsigned line, std::uint8_t *out) const override;
    std::uint64_t readyMask() const override;
    std::size_t resultBytes() const override;

  private:
    /** Patch the trailer tag into this page's result bytes (once). */
    void placeTag() const;

    /** Bitmask of this page's trailer-region lines (>= payload). */
    std::uint64_t trailerMask() const;

    std::shared_ptr<TlsMessageState> state_;
    std::size_t page_index_;
    std::size_t page_payload_;  ///< payload bytes within this page
    std::size_t payload_lines_; ///< lines carrying payload
    bool holds_tag_;            ///< trailer lives in this page
    mutable std::vector<std::uint8_t> result_;
    mutable std::uint64_t ready_ = 0; ///< bit per available result line
    mutable bool tag_placed_ = false;
    std::size_t lines_done_ = 0;
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_TLS_DSA_H
