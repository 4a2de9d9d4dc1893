#include "crypto/tls_record.h"

#include <cstring>

#include "common/log.h"

namespace sd::crypto {

namespace {

/** Application-data content type used on the wire. */
constexpr std::uint8_t kContentTypeAppData = 23;

void
writeHeader(std::uint8_t *hdr, std::size_t body_len)
{
    hdr[0] = kContentTypeAppData;
    hdr[1] = 0x03; // legacy TLS 1.2 version on the wire
    hdr[2] = 0x03;
    hdr[3] = static_cast<std::uint8_t>(body_len >> 8);
    hdr[4] = static_cast<std::uint8_t>(body_len);
}

} // namespace

TlsSession::TlsSession(const std::uint8_t key[16], const GcmIv &static_iv)
    : ctx_(key, Aes::KeySize::k128), static_iv_(static_iv)
{
}

GcmIv
tlsNonce(const GcmIv &static_iv, std::uint64_t seq)
{
    GcmIv nonce = static_iv;
    for (int i = 0; i < 8; ++i)
        nonce[4 + i] ^= static_cast<std::uint8_t>(seq >> (56 - 8 * i));
    return nonce;
}

TlsRecord
TlsSession::protect(const std::uint8_t *plain, std::size_t len)
{
    SD_ASSERT(len > 0 && len <= kTlsMaxFragment,
              "TLS fragment size %zu out of range", len);

    TlsRecord record;
    record.wire.resize(kTlsHeaderSize + len + kTlsTagSize);
    writeHeader(record.wire.data(), len + kTlsTagSize);

    const GcmIv nonce = nonceFor(tx_seq_++);
    const GcmTag tag = ctx_.encrypt(
        nonce, plain, len, record.wire.data() + kTlsHeaderSize,
        record.wire.data(), kTlsHeaderSize);
    std::memcpy(record.wire.data() + kTlsHeaderSize + len, tag.data(),
                kTlsTagSize);
    return record;
}

std::vector<std::uint8_t>
TlsSession::unprotect(const TlsRecord &record)
{
    if (record.wire.size() < kTlsHeaderSize + kTlsTagSize)
        return {};
    const std::size_t len = record.payloadLen();

    GcmTag tag;
    std::memcpy(tag.data(), record.wire.data() + kTlsHeaderSize + len,
                kTlsTagSize);

    std::vector<std::uint8_t> plain(len);
    const GcmIv nonce = nonceFor(rx_seq_);
    const bool ok = ctx_.decrypt(nonce,
                                 record.wire.data() + kTlsHeaderSize, len,
                                 tag, plain.data(), record.wire.data(),
                                 kTlsHeaderSize);
    if (!ok)
        return {};
    ++rx_seq_;
    return plain;
}

} // namespace sd::crypto
