/**
 * @file
 * Hardware-constrained Deflate DSA model (Sec. V-B): output must stay
 * decodable by the software decoder, distances must respect the 4 KB
 * history, bank conflicts must only degrade (never corrupt) the
 * stream, and throughput accounting must match the 8-byte window.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "compress/deflate.h"
#include "compress/hw_deflate.h"

namespace {

using sd::Rng;
using sd::compress::deflateCompress;
using sd::compress::deflateDecompress;
using sd::compress::DeflateStrategy;
using sd::compress::HwDeflateConfig;
using sd::compress::hwDeflateCompress;
using sd::compress::HwDeflateStats;
using sd::compress::hwDeflateTokens;
using sd::compress::lz77Decompress;

std::vector<std::uint8_t>
webCorpus(std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    static const char *snippets[] = {
        "HTTP/1.1 200 OK\r\nContent-Encoding: deflate\r\n",
        "<li><a href=\"/product/4711\">SmartDIMM DDR4 module</a></li>",
        "function render(node) { return node.innerHTML; }",
        "Lorem ipsum dolor sit amet, consectetur adipiscing elit. ",
    };
    std::vector<std::uint8_t> out;
    while (out.size() < len) {
        const char *p = snippets[rng.below(4)];
        out.insert(out.end(), p, p + std::strlen(p));
    }
    out.resize(len);
    return out;
}

/** Decode the page-framed DSA stream. */
std::vector<std::uint8_t>
decodePaged(const std::vector<std::uint8_t> &stream)
{
    std::vector<std::uint8_t> out;
    std::size_t pos = 0;
    while (pos + 2 <= stream.size()) {
        const std::size_t page_len = stream[pos] | (stream[pos + 1] << 8);
        pos += 2;
        const auto page =
            deflateDecompress(stream.data() + pos, page_len);
        out.insert(out.end(), page.begin(), page.end());
        pos += page_len;
    }
    return out;
}

TEST(HwDeflate, TokensRoundTrip)
{
    const auto data = webCorpus(4096, 1);
    const auto tokens = hwDeflateTokens(data.data(), data.size());
    EXPECT_EQ(lz77Decompress(tokens), data);
}

TEST(HwDeflate, DistancesRespectHistoryWindow)
{
    const auto data = webCorpus(4096, 2);
    const auto tokens = hwDeflateTokens(data.data(), data.size());
    for (const auto &tok : tokens)
        if (tok.is_match) {
            EXPECT_LE(tok.distance, sd::compress::kHwHistory);
        }
}

TEST(HwDeflate, PagedStreamDecodable)
{
    for (std::size_t len : {100u, 4096u, 4097u, 16384u, 20000u}) {
        const auto data = webCorpus(len, 10 + len);
        const auto stream = hwDeflateCompress(data.data(), data.size());
        EXPECT_EQ(decodePaged(stream), data) << "len " << len;
    }
}

TEST(HwDeflate, RandomDataSurvives)
{
    Rng rng(3);
    std::vector<std::uint8_t> data(8192);
    rng.fill(data.data(), data.size());
    const auto stream = hwDeflateCompress(data.data(), data.size());
    EXPECT_EQ(decodePaged(stream), data);
}

TEST(HwDeflate, CompressesRepetitiveData)
{
    const auto data = webCorpus(4096, 4);
    HwDeflateStats stats;
    const auto stream =
        hwDeflateCompress(data.data(), data.size(), {}, &stats);
    EXPECT_LT(stream.size(), data.size())
        << "DSA should shrink repetitive web data";
    EXPECT_GT(stats.matches, 0u);
}

TEST(HwDeflate, BankConflictsOnlyDegradeRatio)
{
    const auto data = webCorpus(16384, 5);

    HwDeflateConfig best_effort;
    best_effort.drop_on_conflict = true;
    HwDeflateConfig ideal;
    ideal.drop_on_conflict = false;

    HwDeflateStats be_stats;
    HwDeflateStats id_stats;
    const auto be = hwDeflateCompress(data.data(), data.size(),
                                      best_effort, &be_stats);
    const auto id = hwDeflateCompress(data.data(), data.size(), ideal,
                                      &id_stats);

    // Both must decode correctly.
    EXPECT_EQ(decodePaged(be), data);
    EXPECT_EQ(decodePaged(id), data);
    // The idealised memory sees no conflicts.
    EXPECT_EQ(id_stats.bank_conflicts, 0u);
    EXPECT_GT(be_stats.bank_conflicts, 0u);
    // Best effort can never beat the ideal table by construction
    // (allow a tiny tolerance for heuristic tie-breaks).
    EXPECT_LE(id.size(), be.size() + be.size() / 20);
}

TEST(HwDeflate, StepCountMatchesParallelWindow)
{
    // Incompressible data advances exactly window bytes per step.
    Rng rng(6);
    std::vector<std::uint8_t> data(4096);
    rng.fill(data.data(), data.size());
    HwDeflateConfig cfg;
    cfg.parallel_window = 8;
    HwDeflateStats stats;
    hwDeflateTokens(data.data(), data.size(), cfg, &stats);
    EXPECT_LE(stats.steps, 4096u / 8 + 1);
}

TEST(HwDeflate, WiderWindowImprovesRatioOnRepeats)
{
    const auto data = webCorpus(16384, 7);
    HwDeflateConfig narrow;
    narrow.parallel_window = 1;
    HwDeflateConfig wide;
    wide.parallel_window = 8;
    const auto n = hwDeflateCompress(data.data(), data.size(), narrow);
    const auto w = hwDeflateCompress(data.data(), data.size(), wide);
    // Both decodable; sizes comparable (window affects throughput more
    // than ratio, but must not corrupt).
    EXPECT_EQ(decodePaged(n), data);
    EXPECT_EQ(decodePaged(w), data);
}

TEST(HwDeflate, SoftwareDeflateBeatsDsaOnRatio)
{
    // The DSA trades ratio for determinism (Sec. V-B); the software
    // encoder with a 32 KB window and dynamic tables should win.
    const auto data = webCorpus(32768, 8);
    const auto sw = deflateCompress(data.data(), data.size(),
                                    DeflateStrategy::kDynamic);
    const auto hw = hwDeflateCompress(data.data(), data.size());
    EXPECT_LT(sw.bytes.size(), hw.size());
}

TEST(HwDeflate, StatsAccounting)
{
    const auto data = webCorpus(4096, 9);
    HwDeflateStats stats;
    const auto tokens =
        hwDeflateTokens(data.data(), data.size(), {}, &stats);
    std::uint64_t lits = 0;
    std::uint64_t matches = 0;
    for (const auto &tok : tokens)
        (tok.is_match ? matches : lits)++;
    EXPECT_EQ(stats.literals, lits);
    EXPECT_EQ(stats.matches, matches);
}

} // namespace
