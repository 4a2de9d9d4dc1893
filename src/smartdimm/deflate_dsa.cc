#include "smartdimm/deflate_dsa.h"

#include <cstring>

#include "common/log.h"
#include "smartdimm/config.h"

namespace sd::smartdimm {

DeflateDsaJob::DeflateDsaJob(std::size_t payload_bytes,
                             const compress::HwDeflateConfig &hw_config,
                             DsaStats *stats)
    : payload_bytes_(payload_bytes),
      payload_lines_(divCeil(payload_bytes, kCacheLineSize)),
      hw_config_(hw_config), stats_(stats)
{
    SD_ASSERT(payload_bytes_ >= 1 &&
                  payload_bytes_ <= kDeflateMaxPayload,
              "deflate DSA payload capped at %zu bytes (got %zu)",
              kDeflateMaxPayload, payload_bytes_);
    input_.reserve(kPageSize);
}

Cycles
DeflateDsaJob::processLine(unsigned line, const std::uint8_t *data)
{
    if (poisoned_)
        return kDsaLineLatency;
    if (line != next_line_) {
        // Fence violation: the streaming pipeline cannot reorder, so
        // the hardware poisons the job instead of emitting a corrupt
        // stream. The page never completes; its dbuf reads keep
        // asserting ALERT_N until the controller degrades them and the
        // host falls back (graceful, not SD_ASSERT-fatal).
        poisoned_ = true;
        if (stats_)
            ++stats_->deflate_order_faults;
        return kDsaLineLatency;
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
        result_ = compress::hwDeflateCompress(input_.data(),
                                              input_.size(), hw_config_);
        SD_ASSERT(result_.size() <= kPageSize,
                  "compressed page exceeded a page (incompressible "
                  "input should use stored blocks)");
        result_.resize(kPageSize, 0);
        done_ = true;
        if (stats_) {
            ++stats_->deflate_pages;
            stats_->deflate_output_bytes += resultBytes();
        }
    }
    if (stats_) {
        ++stats_->deflate_lines;
        stats_->deflate_busy_cycles += kDsaLineLatency;
    }
    return kDsaLineLatency;
}

bool
DeflateDsaJob::resultLine(unsigned line, std::uint8_t *out) const
{
    SD_ASSERT(line < kLinesPerPage, "line index out of page");
    if (!done_)
        return false;
    std::memcpy(out, result_.data() + line * kCacheLineSize,
                kCacheLineSize);
    return true;
}

std::size_t
DeflateDsaJob::resultBytes() const
{
    if (!done_)
        return 0;
    // 2-byte framing header + stream length, rounded to lines.
    const std::size_t framed =
        2 + (static_cast<std::size_t>(result_[0]) |
             (static_cast<std::size_t>(result_[1]) << 8));
    return std::min(framed, kPageSize);
}

} // namespace sd::smartdimm
