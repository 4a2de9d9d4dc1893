/**
 * @file
 * LZ77 match finder: round trips, window limits, and token validity
 * invariants over synthetic corpora.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "compress/lz77.h"

namespace {

using sd::Rng;
using sd::compress::kMaxDistance;
using sd::compress::kMaxMatch;
using sd::compress::kMinMatch;
using sd::compress::Lz77Config;
using sd::compress::lz77Compress;
using sd::compress::lz77Decompress;
using sd::compress::Lz77Stats;
using sd::compress::Lz77Token;

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/** Synthetic corpus mixing repeated phrases and random noise. */
std::vector<std::uint8_t>
mixedCorpus(std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    static const char *phrases[] = {
        "GET /index.html HTTP/1.1\r\n", "Content-Type: text/html\r\n",
        "the quick brown fox jumps over the lazy dog ",
        "<div class=\"header\">", "0123456789",
    };
    std::vector<std::uint8_t> out;
    while (out.size() < len) {
        if (rng.chance(0.7)) {
            const char *p = phrases[rng.below(5)];
            out.insert(out.end(), p, p + std::strlen(p));
        } else {
            for (int i = 0; i < 8; ++i)
                out.push_back(static_cast<std::uint8_t>(rng.next()));
        }
    }
    out.resize(len);
    return out;
}

TEST(Lz77, EmptyInput)
{
    const auto tokens = lz77Compress(nullptr, 0);
    EXPECT_TRUE(tokens.empty());
    EXPECT_TRUE(lz77Decompress(tokens).empty());
}

TEST(Lz77, AllLiteralsForIncompressible)
{
    // 2 bytes cannot contain a 3-byte match.
    const auto data = bytesOf("ab");
    const auto tokens = lz77Compress(data.data(), data.size());
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_FALSE(tokens[0].is_match);
    EXPECT_FALSE(tokens[1].is_match);
}

TEST(Lz77, FindsSimpleRepeat)
{
    const auto data = bytesOf("abcabcabcabc");
    Lz77Stats stats;
    const auto tokens =
        lz77Compress(data.data(), data.size(), {}, &stats);
    EXPECT_GT(stats.matches, 0u);
    EXPECT_EQ(lz77Decompress(tokens), data);
}

TEST(Lz77, OverlappingRleMatch)
{
    // "aaaa..." compresses as one literal + an overlapping match with
    // distance 1.
    std::vector<std::uint8_t> data(300, 'a');
    const auto tokens = lz77Compress(data.data(), data.size());
    EXPECT_EQ(lz77Decompress(tokens), data);
    ASSERT_GE(tokens.size(), 2u);
    EXPECT_FALSE(tokens[0].is_match);
    EXPECT_TRUE(tokens[1].is_match);
    EXPECT_EQ(tokens[1].distance, 1);
}

TEST(Lz77, TokensRespectFormatLimits)
{
    const auto data = mixedCorpus(1 << 16, 5);
    const auto tokens = lz77Compress(data.data(), data.size());
    for (const auto &tok : tokens) {
        if (!tok.is_match)
            continue;
        EXPECT_GE(tok.length, kMinMatch);
        EXPECT_LE(tok.length, kMaxMatch);
        EXPECT_GE(tok.distance, 1);
        EXPECT_LE(tok.distance, kMaxDistance);
    }
    EXPECT_EQ(lz77Decompress(tokens), data);
}

TEST(Lz77, WindowLimitIsHonoured)
{
    Lz77Config cfg;
    cfg.window = 256;
    const auto data = mixedCorpus(1 << 14, 6);
    const auto tokens = lz77Compress(data.data(), data.size(), cfg);
    for (const auto &tok : tokens)
        if (tok.is_match) {
            EXPECT_LE(tok.distance, 256);
        }
    EXPECT_EQ(lz77Decompress(tokens), data);
}

TEST(Lz77, LazyMatchingNeverHurtsTokenCount)
{
    const auto data = mixedCorpus(1 << 15, 7);
    Lz77Config lazy;
    lazy.lazy = true;
    Lz77Config greedy;
    greedy.lazy = false;
    const auto t_lazy = lz77Compress(data.data(), data.size(), lazy);
    const auto t_greedy = lz77Compress(data.data(), data.size(), greedy);
    EXPECT_EQ(lz77Decompress(t_lazy), data);
    EXPECT_EQ(lz77Decompress(t_greedy), data);
    // Lazy matching should compress at least comparably well.
    EXPECT_LE(t_lazy.size(), t_greedy.size() + t_greedy.size() / 10);
}

class Lz77RoundTrip : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(Lz77RoundTrip, RandomCorpora)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto data = mixedCorpus(GetParam(), seed * 31);
        const auto tokens = lz77Compress(data.data(), data.size());
        ASSERT_EQ(lz77Decompress(tokens), data)
            << "len " << GetParam() << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Lz77RoundTrip,
                         ::testing::Values(1, 2, 3, 64, 100, 4096, 40000));

TEST(Lz77, StatsAreConsistent)
{
    const auto data = mixedCorpus(1 << 14, 8);
    Lz77Stats stats;
    const auto tokens =
        lz77Compress(data.data(), data.size(), {}, &stats);
    EXPECT_EQ(stats.literals + stats.matches, tokens.size());
    EXPECT_EQ(stats.literals + stats.matched_bytes, data.size());
}

} // namespace
