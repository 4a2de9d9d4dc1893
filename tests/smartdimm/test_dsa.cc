/**
 * @file
 * DSA jobs in isolation: the TLS job must reproduce software AES-GCM
 * over any line arrival order; the Deflate job must enforce ordering
 * and produce a decodable framed stream.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>

#include "common/random.h"
#include "compress/deflate.h"
#include "smartdimm/deflate_dsa.h"
#include "smartdimm/tls_dsa.h"

namespace {

using namespace sd;
using smartdimm::DeflateDsaJob;
using smartdimm::TlsDsaJob;
using smartdimm::TlsMessageState;

struct TlsFixture
{
    std::uint8_t key[16];
    crypto::GcmIv iv{};
    std::vector<std::uint8_t> plain;
    std::shared_ptr<TlsMessageState> state;

    TlsFixture(std::size_t len, std::uint64_t seed)
    {
        Rng rng(seed);
        rng.fill(key, 16);
        rng.fill(iv.data(), iv.size());
        plain.resize(len);
        rng.fill(plain.data(), len);
        state = std::make_shared<TlsMessageState>(key, iv, len);
    }

    std::vector<std::uint8_t>
    reference(crypto::GcmTag &tag) const
    {
        crypto::GcmContext ctx(key, crypto::Aes::KeySize::k128);
        std::vector<std::uint8_t> cipher(plain.size());
        tag = ctx.encrypt(iv, plain.data(), plain.size(), cipher.data());
        return cipher;
    }
};

TEST(TlsDsa, SinglePageRecordProducesCipherAndTag)
{
    TlsFixture fx(4000, 1);
    TlsDsaJob job(fx.state, 0);

    const std::size_t lines = divCeil(4000ul, kCacheLineSize);
    for (std::size_t l = 0; l < lines; ++l) {
        std::uint8_t padded[kCacheLineSize] = {};
        const std::size_t take =
            std::min(kCacheLineSize, 4000ul - l * kCacheLineSize);
        std::memcpy(padded, fx.plain.data() + l * kCacheLineSize, take);
        job.processLine(static_cast<unsigned>(l), padded);
    }
    ASSERT_EQ(job.readyMask(), ~std::uint64_t{0});

    crypto::GcmTag tag;
    const auto expect = fx.reference(tag);

    const std::uint8_t *result = job.resultPage();
    EXPECT_EQ(0, std::memcmp(result, expect.data(), 4000));
    EXPECT_EQ(0, std::memcmp(result + 4000, tag.data(), 16));
}

TEST(TlsDsa, OutOfOrderLinesAcrossPages)
{
    const std::size_t len = 2 * kPageSize + 100;
    TlsFixture fx(len, 2);
    TlsDsaJob page0(fx.state, 0);
    TlsDsaJob page1(fx.state, 1);
    TlsDsaJob page2(fx.state, 2);
    TlsDsaJob *jobs[3] = {&page0, &page1, &page2};

    // Interleave lines of the three pages pseudo-randomly.
    struct Item
    {
        unsigned page;
        unsigned line;
    };
    std::vector<Item> order;
    for (unsigned p = 0; p < 3; ++p) {
        const std::size_t page_payload =
            p < 2 ? kPageSize : 100;
        for (unsigned l = 0; l * kCacheLineSize < page_payload; ++l)
            order.push_back({p, l});
    }
    Rng rng(3);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    for (const auto &item : order) {
        std::uint8_t padded[kCacheLineSize] = {};
        const std::size_t off =
            item.page * kPageSize + item.line * kCacheLineSize;
        const std::size_t take = std::min(kCacheLineSize, len - off);
        std::memcpy(padded, fx.plain.data() + off, take);
        jobs[item.page]->processLine(item.line, padded);
    }
    EXPECT_TRUE(fx.state->complete());

    crypto::GcmTag tag;
    const auto expect = fx.reference(tag);
    // Page 2 carries the final 100 bytes + tag.
    ASSERT_EQ(page2.readyMask() & 3u, 3u);
    const std::uint8_t *result = page2.resultPage();
    EXPECT_EQ(0, std::memcmp(result, expect.data() + 2 * kPageSize, 100));
    EXPECT_EQ(0, std::memcmp(result + 100, tag.data(), 16));
}

TEST(TlsDsa, ResultUnavailableBeforeProcessing)
{
    TlsFixture fx(4096, 4);
    TlsDsaJob job(fx.state, 0);
    EXPECT_EQ(job.readyMask(), 0u);
    std::uint8_t line[kCacheLineSize] = {};
    job.processLine(0, line);
    EXPECT_EQ(job.readyMask(), 1u);
}

TEST(TlsDsa, TagLineHeldBackUntilRecordCompletes)
{
    // A 100-byte record: the tag lands at byte 100, inside payload
    // line 1. Line 1 arriving first must not ready that line, or the
    // Scratchpad would stage it without the tag.
    const std::size_t len = 100;
    TlsFixture fx(len, 6);
    TlsDsaJob job(fx.state, 0);

    std::uint8_t line1[kCacheLineSize] = {};
    std::memcpy(line1, fx.plain.data() + kCacheLineSize,
                len - kCacheLineSize);
    job.processLine(1, line1);
    EXPECT_EQ(job.readyMask() & 2u, 0u)
        << "the tag's line waits for the rest of the record";

    job.processLine(0, fx.plain.data());
    ASSERT_EQ(job.readyMask(), ~std::uint64_t{0});

    crypto::GcmTag tag;
    const auto expect = fx.reference(tag);
    const std::uint8_t *result = job.resultPage();
    EXPECT_EQ(0, std::memcmp(result, expect.data(), len));
    EXPECT_EQ(0, std::memcmp(result + len, tag.data(), tag.size()));
}

TEST(TlsDsa, TagOnlyTrailerPage)
{
    const std::size_t len = kPageSize; // tag spills to page 1
    TlsFixture fx(len, 5);
    TlsDsaJob payload(fx.state, 0);
    TlsDsaJob trailer(fx.state, 1);

    EXPECT_EQ(trailer.readyMask(), 0u)
        << "tag not available until the record completes";

    for (unsigned l = 0; l < kLinesPerPage; ++l)
        payload.processLine(l, fx.plain.data() + l * kCacheLineSize);

    crypto::GcmTag tag;
    fx.reference(tag);
    ASSERT_EQ(trailer.readyMask(), ~std::uint64_t{0})
        << "the tag line and its zero padding";
    EXPECT_EQ(0, std::memcmp(trailer.resultPage(), tag.data(), 16));
}

TEST(DeflateDsa, OrderedStreamingCompression)
{
    std::vector<std::uint8_t> page(4000);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>("abcdefgh"[i % 8]);

    DeflateDsaJob job(page.size());
    EXPECT_EQ(job.readyMask(), 0u);

    const std::size_t lines = divCeil(page.size(), kCacheLineSize);
    for (std::size_t l = 0; l < lines; ++l) {
        std::uint8_t padded[kCacheLineSize] = {};
        const std::size_t take =
            std::min(kCacheLineSize, page.size() - l * kCacheLineSize);
        std::memcpy(padded, page.data() + l * kCacheLineSize, take);
        job.processLine(static_cast<unsigned>(l), padded);
    }
    ASSERT_EQ(job.readyMask(), ~std::uint64_t{0});

    const std::uint8_t *framed = job.resultPage();
    const std::size_t stream_len = framed[0] | (framed[1] << 8);
    ASSERT_GT(stream_len, 0u);
    const auto back = compress::deflateDecompress(framed + 2, stream_len);
    EXPECT_EQ(back, page);
    EXPECT_LT(2 + stream_len, page.size());
}

TEST(DeflateDsa, NoResultsUntilComplete)
{
    std::vector<std::uint8_t> page(1000, 'x');
    DeflateDsaJob job(page.size());
    std::uint8_t line[kCacheLineSize] = {'x'};
    job.processLine(0, line);
    EXPECT_EQ(job.readyMask(), 0u)
        << "streaming ULP emits only at completion";
}

TEST(DeflateDsa, IncompressiblePageFallsBackToStored)
{
    Rng rng(6);
    std::vector<std::uint8_t> page(4000);
    rng.fill(page.data(), page.size());

    DeflateDsaJob job(page.size());
    const std::size_t lines = divCeil(page.size(), kCacheLineSize);
    for (std::size_t l = 0; l < lines; ++l) {
        std::uint8_t padded[kCacheLineSize] = {};
        const std::size_t take =
            std::min(kCacheLineSize, page.size() - l * kCacheLineSize);
        std::memcpy(padded, page.data() + l * kCacheLineSize, take);
        job.processLine(static_cast<unsigned>(l), padded);
    }
    ASSERT_EQ(job.readyMask(), ~std::uint64_t{0});
    const std::uint8_t *framed = job.resultPage();
    const std::size_t stream_len = framed[0] | (framed[1] << 8);
    const auto back = compress::deflateDecompress(framed + 2, stream_len);
    EXPECT_EQ(back, page);
}

} // namespace
