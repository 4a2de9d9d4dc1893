/**
 * @file
 * Deflate DSA job (Sec. V-B): page-granular streaming compression.
 * Source lines must arrive in order (the CompCpy ordered mode inserts
 * fences); the compressed page — a 2-byte length header plus the
 * fixed-Huffman stream — becomes available once the final line has
 * been consumed.
 */

#ifndef SD_SMARTDIMM_DEFLATE_DSA_H
#define SD_SMARTDIMM_DEFLATE_DSA_H

#include <vector>

#include "common/types.h"
#include "compress/hw_deflate.h"
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
     * @param hw_config pipeline geometry (8-byte window, 8 banks...)
     * @param line_latency busy cycles per consumed source line
     * @param stats optional aggregate counters (buffer-device owned)
     */
    DeflateDsaJob(std::size_t payload_bytes,
                  const compress::HwDeflateConfig &hw_config,
                  Cycles line_latency, DsaStats *stats = nullptr);

    UlpKind kind() const override { return UlpKind::kDeflate; }
    bool ordered() const override { return true; }

    Cycles processLine(unsigned line, const std::uint8_t *data) override;
    bool complete() const override { return done_; }
    bool resultLine(unsigned line, std::uint8_t *out) const override;
    /** Streaming ULP: the whole page appears at completion. */
    std::uint64_t
    readyMask() const override
    {
        return done_ ? ~std::uint64_t{0} : 0;
    }
    std::size_t resultBytes() const override;

    /** True after an out-of-order line poisoned the stream. */
    bool poisoned() const { return poisoned_; }

  private:
    std::size_t payload_bytes_;
    std::size_t payload_lines_;
    compress::HwDeflateConfig hw_config_;
    Cycles line_latency_;
    std::vector<std::uint8_t> input_;
    std::vector<std::uint8_t> result_;
    DsaStats *stats_ = nullptr;
    unsigned next_line_ = 0;
    bool done_ = false;
    bool poisoned_ = false;
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_DEFLATE_DSA_H
