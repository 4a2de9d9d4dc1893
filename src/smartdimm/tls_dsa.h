/**
 * @file
 * TLS (AES-GCM) DSA per Fig. 7. The CPU ships the key material, hash
 * subkey H and encrypted IV through the Config Memory; the GF
 * multiplier precomputes powers of H in strides of 4 so GHASH folds of
 * different cachelines are independent, letting rdCAS commands arrive
 * out of order. The record's table holds H^1..H^4 and one stride
 * power per line: a line's four ciphertext blocks are multiplied by
 * H^4..H^1 and summed, and the sum is multiplied by the line's stride
 * power, H^(GHASH blocks after the line); consecutive strides differ
 * by H^4 (kernels/gcm_kernel.h). Each processed line XORs its GHASH
 * contribution into the message's partial tag; the final tag lands in
 * the record trailer once every line is in.
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
 * this object, and the buffer device keeps it as the record's entry,
 * with the record's destination pages.
 */
class TlsMessageState
{
  public:
    /**
     * @param key 16-byte AES-128 key (context write)
     * @param iv per-record nonce (context write)
     * @param message_len plaintext bytes
     * @param stats optional aggregate counters (buffer-device owned)
     */
    TlsMessageState(const std::uint8_t key[16], const crypto::GcmIv &iv,
                    std::size_t message_len, DsaStats *stats = nullptr);

    /** Encrypt global cacheline @p index of the message. */
    void processLine(std::size_t index, const std::uint8_t *in,
                     std::uint8_t *out);

    bool complete() const { return gcm_.complete(); }
    std::size_t messageLen() const { return message_len_; }
    std::size_t lineCount() const { return gcm_.lineCount(); }

    /** Final 16-byte authentication tag (trailer contents). */
    crypto::GcmTag finalTag() const { return gcm_.finalTag(); }

    /** The record's destination pages in registration order, so its
     *  trailer (tag-only) pages materialise when it completes. */
    std::vector<std::uint64_t> dest_pages;
    /** Registered destination pages not yet retired. */
    unsigned live_pages = 0;

  private:
    crypto::GcmContext ctx_;
    crypto::IncrementalGcm gcm_;
    std::size_t message_len_;
    DsaStats *stats_;
};

/**
 * The per-source-page DSA job: encrypts the page's slice of the
 * message into its result page. The trailer tag lands in the result
 * page that contains offset message_len once the whole message is in.
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

    void processLine(unsigned line, const std::uint8_t *data) override;
    /** Processed payload lines, plus the trailer region (zero
     *  padding, and the tag on the tag page): at once on other pages,
     *  on the tag page once the message completes. The tag page holds
     *  back the line(s) the tag lands in until then, payload or not. */
    std::uint64_t readyMask() override;

  private:
    /** Patch the trailer tag into this page's result bytes (once). */
    void placeTag();

    std::shared_ptr<TlsMessageState> state_;
    std::size_t page_index_;
    std::size_t payload_lines_; ///< lines carrying payload
    bool holds_tag_;            ///< trailer lives in this page
    std::uint64_t tag_lines_ = 0; ///< bit per line the tag lands in
    std::uint64_t ready_ = 0;   ///< bit per processed line (and tag)
    bool tag_placed_ = false;
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_TLS_DSA_H
