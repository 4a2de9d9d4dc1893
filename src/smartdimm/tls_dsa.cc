#include "smartdimm/tls_dsa.h"

#include <cstring>

#include "common/log.h"
#include "crypto/tls_record.h"

namespace sd::smartdimm {

TlsMessageState::TlsMessageState(const std::uint8_t key[16],
                                 const crypto::GcmIv &iv,
                                 std::size_t message_len, DsaStats *stats)
    : ctx_(key, crypto::Aes::KeySize::k128),
      gcm_(ctx_, iv, message_len), message_len_(message_len),
      stats_(stats)
{
}

void
TlsMessageState::processLine(std::size_t index, const std::uint8_t *in,
                             std::uint8_t *out)
{
    gcm_.processLine(index, in, out);
    if (stats_) {
        ++stats_->tls_lines;
        if (gcm_.complete())
            ++stats_->tls_messages;
    }
}

TlsDsaJob::TlsDsaJob(std::shared_ptr<TlsMessageState> state,
                     std::size_t page_index)
    : state_(std::move(state)), page_index_(page_index)
{
    const std::size_t msg_len = state_->messageLen();
    const std::size_t page_start = page_index_ * kPageSize;
    SD_ASSERT(page_start < msg_len + crypto::kTlsTagSize,
              "TLS page beyond record");
    const std::size_t page_payload =
        page_start < msg_len ? std::min(kPageSize, msg_len - page_start)
                             : 0;
    payload_lines_ = divCeil(page_payload, kCacheLineSize);

    // The trailer tag belongs to the page containing byte message_len.
    // A tag-only page (message_len on a page boundary) has no payload
    // lines; its tag line becomes ready when the message completes.
    holds_tag_ = page_index_ == msg_len / kPageSize;
    if (holds_tag_) {
        const std::size_t tag_off = msg_len - page_start;
        SD_ASSERT(tag_off + crypto::kTlsTagSize <= kPageSize,
                  "trailer tag crosses the destination page");
        for (std::size_t b = tag_off / kCacheLineSize;
             b <= (tag_off + crypto::kTlsTagSize - 1) / kCacheLineSize;
             ++b)
            tag_lines_ |= std::uint64_t{1} << b;
    }
}

void
TlsDsaJob::processLine(unsigned line, const std::uint8_t *data)
{
    SD_ASSERT(line < kLinesPerPage, "line index out of page");
    if (line >= payload_lines_)
        return; // padding line of the trailer region: nothing to do

    const std::size_t global_line =
        page_index_ * kLinesPerPage + line;
    state_->processLine(global_line, data,
                        result_.data() + line * kCacheLineSize);
    ready_ |= std::uint64_t{1} << line;
    if (state_->complete() && holds_tag_)
        placeTag();
}

void
TlsDsaJob::placeTag()
{
    // The tag is final once the message completes, and no line is
    // processed after that, so placing it once is enough.
    if (tag_placed_)
        return;
    tag_placed_ = true;
    const crypto::GcmTag tag = state_->finalTag();
    const std::size_t tag_off =
        state_->messageLen() - page_index_ * kPageSize;
    std::memcpy(result_.data() + tag_off, tag.data(), tag.size());
    ready_ |= tag_lines_;
}

std::uint64_t
TlsDsaJob::readyMask()
{
    // Padding lines of a non-tag page are ready at once; the tag
    // page's trailer (tag line + padding) waits for the whole message.
    const std::uint64_t trailer =
        payload_lines_ >= kLinesPerPage
            ? 0
            : ~std::uint64_t{0} << payload_lines_;
    if (!holds_tag_)
        return ready_ | trailer;
    if (state_->complete()) {
        placeTag();
        return ready_ | trailer;
    }
    // A payload line the tag lands in is not final until the tag is.
    return ready_ & ~tag_lines_;
}

} // namespace sd::smartdimm
