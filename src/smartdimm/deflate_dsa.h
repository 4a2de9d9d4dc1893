/**
 * @file
 * Deflate DSA job (Sec. V-B): page-granular streaming compression.
 * Source lines must arrive in order (the CompCpy ordered mode inserts
 * fences); the compressed page — a 2-byte length header plus the
 * fixed-Huffman stream — becomes available once the final line has
 * been consumed. The pipeline is the paper's: an 8-byte parallel
 * window with best-effort bank arbitration (compress::HwDeflateConfig's
 * defaults).
 */

#ifndef SD_SMARTDIMM_DEFLATE_DSA_H
#define SD_SMARTDIMM_DEFLATE_DSA_H

#include <vector>

#include "common/types.h"
#include "smartdimm/dsa.h"

namespace sd::smartdimm {

/**
 * Maximum payload per deflate offload page: the 2-byte frame header
 * plus worst-case stored-block expansion (5 bytes) must still fit the
 * single destination page the software registers (Sec. V-C).
 */
inline constexpr std::size_t kDeflateMaxPayload =
    kPageSize - 2 - 5;

/** One page-granular compression offload. */
class DeflateDsaJob : public DsaJob
{
  public:
    /**
     * @param payload_bytes valid bytes within the source page
     * @param stats optional aggregate counters (buffer-device owned)
     */
    explicit DeflateDsaJob(std::size_t payload_bytes,
                           DsaStats *stats = nullptr);

    void processLine(unsigned line, const std::uint8_t *data) override;
    /** Streaming ULP: the whole page appears at completion. */
    std::uint64_t
    readyMask() override
    {
        return done_ ? ~std::uint64_t{0} : 0;
    }

  private:
    std::size_t payload_bytes_;
    std::size_t payload_lines_;
    std::vector<std::uint8_t> input_;
    DsaStats *stats_ = nullptr;
    unsigned next_line_ = 0;
    bool done_ = false;
    bool poisoned_ = false;
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_DEFLATE_DSA_H
