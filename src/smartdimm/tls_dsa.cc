#include "smartdimm/tls_dsa.h"

#include <cstring>

#include "common/log.h"
#include "crypto/tls_record.h"

namespace sd::smartdimm {

TlsMessageState::TlsMessageState(const std::uint8_t key[16],
                                 const crypto::GcmIv &iv,
                                 std::size_t message_len,
                                 Cycles line_latency, DsaStats *stats)
    : ctx_(key, crypto::Aes::KeySize::k128),
      gcm_(ctx_, iv, message_len), message_len_(message_len),
      line_latency_(line_latency), stats_(stats)
{
}

Cycles
TlsMessageState::processLine(std::size_t index, const std::uint8_t *in,
                             std::uint8_t *out)
{
    gcm_.processLine(index, in, out);
    if (stats_) {
        ++stats_->tls_lines;
        stats_->tls_busy_cycles += line_latency_;
        if (gcm_.complete())
            ++stats_->tls_messages;
    }
    return line_latency_;
}

TlsDsaJob::TlsDsaJob(std::shared_ptr<TlsMessageState> state,
                     std::size_t page_index)
    : state_(std::move(state)), page_index_(page_index)
{
    const std::size_t msg_len = state_->messageLen();
    const std::size_t page_start = page_index_ * kPageSize;
    SD_ASSERT(page_start < msg_len + crypto::kTlsTagSize,
              "TLS page beyond record");
    page_payload_ = page_start < msg_len
                        ? std::min(kPageSize, msg_len - page_start)
                        : 0;
    payload_lines_ = divCeil(page_payload_, kCacheLineSize);

    // The trailer tag belongs to the page containing byte message_len.
    const std::size_t tag_page = msg_len / kPageSize;
    holds_tag_ = page_index_ == tag_page;

    result_.assign(kPageSize, 0);

    // A tag-only page (message_len on a page boundary) has no payload
    // lines; its single tag line becomes ready when the message
    // completes, checked lazily in resultLine().
}

Cycles
TlsDsaJob::processLine(unsigned line, const std::uint8_t *data)
{
    SD_ASSERT(line < kLinesPerPage, "line index out of page");
    if (line >= payload_lines_)
        return 0; // padding line of the trailer region: nothing to do

    const std::size_t global_line =
        page_index_ * kLinesPerPage + line;
    const Cycles busy = state_->processLine(
        global_line, data, result_.data() + line * kCacheLineSize);
    ready_ |= std::uint64_t{1} << line;
    ++lines_done_;
    if (state_->complete() && holds_tag_)
        placeTag();
    return busy;
}

bool
TlsDsaJob::complete() const
{
    return lines_done_ >= payload_lines_;
}

void
TlsDsaJob::placeTag() const
{
    // The tag is final once the message completes, and no line is
    // processed after that, so placing it once is enough.
    if (tag_placed_)
        return;
    tag_placed_ = true;
    const crypto::GcmTag tag = state_->finalTag();
    const std::size_t msg_len = state_->messageLen();
    const std::size_t tag_off = msg_len - page_index_ * kPageSize;
    SD_ASSERT(tag_off + crypto::kTlsTagSize <= kPageSize,
              "trailer tag crosses the destination page");
    std::memcpy(result_.data() + tag_off, tag.data(), tag.size());
    // Mark the tag's line(s) ready.
    for (std::size_t b = tag_off / kCacheLineSize;
         b <= (tag_off + crypto::kTlsTagSize - 1) / kCacheLineSize; ++b)
        ready_ |= std::uint64_t{1} << b;
}

std::uint64_t
TlsDsaJob::trailerMask() const
{
    return payload_lines_ >= kLinesPerPage
               ? 0
               : ~std::uint64_t{0} << payload_lines_;
}

std::uint64_t
TlsDsaJob::readyMask() const
{
    // Mirrors resultLine()'s lazy trailer logic: padding lines of a
    // non-tag page are available immediately; the tag page's trailer
    // (tag line + padding) waits for the whole message.
    if (!holds_tag_)
        return ready_ | trailerMask();
    if (state_->complete()) {
        placeTag();
        return ready_ | trailerMask();
    }
    return ready_;
}

bool
TlsDsaJob::resultLine(unsigned line, std::uint8_t *out) const
{
    SD_ASSERT(line < kLinesPerPage, "line index out of page");
    if (!(ready_ & (std::uint64_t{1} << line))) {
        if (line < payload_lines_)
            return false; // payload not yet processed (S13 territory)
        // Trailer-region line: zero padding is available immediately,
        // but the tag line must wait for the whole message.
        if (holds_tag_) {
            if (!state_->complete())
                return false;
            placeTag();
        }
        ready_ |= std::uint64_t{1} << line;
    }
    std::memcpy(out, result_.data() + line * kCacheLineSize,
                kCacheLineSize);
    return true;
}

std::size_t
TlsDsaJob::resultBytes() const
{
    std::size_t bytes = page_payload_;
    if (holds_tag_)
        bytes = state_->messageLen() - page_index_ * kPageSize +
                crypto::kTlsTagSize;
    return std::min(bytes, kPageSize);
}

} // namespace sd::smartdimm
