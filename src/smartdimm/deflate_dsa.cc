#include "smartdimm/deflate_dsa.h"

#include <cstring>

#include "common/log.h"
#include "compress/hw_deflate.h"

namespace sd::smartdimm {

DeflateDsaJob::DeflateDsaJob(std::size_t payload_bytes, DsaStats *stats)
    : payload_bytes_(payload_bytes),
      payload_lines_(divCeil(payload_bytes, kCacheLineSize)),
      stats_(stats)
{
    SD_ASSERT(payload_bytes_ >= 1 &&
                  payload_bytes_ <= kDeflateMaxPayload,
              "deflate DSA payload capped at %zu bytes (got %zu)",
              kDeflateMaxPayload, payload_bytes_);
    input_.reserve(kPageSize);
}

void
DeflateDsaJob::processLine(unsigned line, const std::uint8_t *data)
{
    if (poisoned_)
        return;
    if (line != next_line_) {
        // Fence violation: the streaming pipeline cannot reorder, so
        // the hardware poisons the job instead of emitting a corrupt
        // stream. The page never completes; its dbuf reads keep
        // asserting ALERT_N until the controller degrades them and the
        // host falls back (graceful, not SD_ASSERT-fatal).
        poisoned_ = true;
        if (stats_)
            ++stats_->deflate_order_faults;
        return;
    }
    ++next_line_;

    const std::size_t already = input_.size();
    const std::size_t take =
        std::min(kCacheLineSize, payload_bytes_ - already);
    input_.insert(input_.end(), data, data + take);

    if (next_line_ >= payload_lines_) {
        // Final line: run the pipeline over the full page. Hardware
        // overlaps this with the line arrivals; the extra latency here
        // models only the pipeline flush.
        const std::vector<std::uint8_t> framed =
            compress::hwDeflateCompress(input_.data(), input_.size());
        SD_ASSERT(framed.size() <= kPageSize,
                  "compressed page exceeded a page (incompressible "
                  "input should use stored blocks)");
        std::memcpy(result_.data(), framed.data(), framed.size());
        done_ = true;
        if (stats_) {
            ++stats_->deflate_pages;
            // One page: the 2-byte length header plus its stream.
            stats_->deflate_output_bytes += framed.size();
        }
    }
    if (stats_)
        ++stats_->deflate_lines;
}

} // namespace sd::smartdimm
