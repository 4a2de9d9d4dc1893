/**
 * @file
 * Structure-aware DEFLATE corruption fuzz: seeded bit-flips over
 * streams from every encoder strategy must either be rejected by
 * deflateTryDecompress or decode to *some* bounded output — never an
 * out-of-bounds access (ASan job in CI), an abort, or an unbounded
 * expansion. Zero flips must round-trip bit-exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "compress/deflate.h"

namespace {

using namespace sd;
using compress::deflateCompress;
using compress::deflateTryDecompress;
using compress::DeflateStrategy;

/** Mixed-texture corpus entry: compressible, random, tiny, empty-ish. */
std::vector<std::uint8_t>
makeSample(int kind, Rng &rng)
{
    switch (kind) {
    case 0: { // highly compressible text
        std::string s;
        for (int i = 0; i < 200; ++i)
            s += "the quick brown fox jumps over the lazy dog ";
        return {s.begin(), s.end()};
    }
    case 1: { // incompressible noise
        std::vector<std::uint8_t> v(2048);
        rng.fill(v.data(), v.size());
        return v;
    }
    case 2: { // runs (RLE-ish matches, long distances)
        std::vector<std::uint8_t> v(4096);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = static_cast<std::uint8_t>((i / 256) * 17);
        return v;
    }
    default: // tiny input
        return {'x'};
    }
}

constexpr DeflateStrategy kStrategies[] = {
    DeflateStrategy::kFixed,
    DeflateStrategy::kDynamic,
    DeflateStrategy::kStored,
};

TEST(DeflateFault, UncorruptedStreamsRoundTrip)
{
    Rng rng(51);
    for (int kind = 0; kind < 4; ++kind) {
        const auto sample = makeSample(kind, rng);
        for (const auto strategy : kStrategies) {
            const auto stream =
                deflateCompress(sample.data(), sample.size(), strategy);
            const auto out = deflateTryDecompress(
                stream.bytes.data(), stream.bytes.size(), 1 << 20);
            ASSERT_TRUE(out.has_value())
                << "kind " << kind << " strategy "
                << static_cast<int>(strategy);
            EXPECT_EQ(*out, sample);
        }
    }
}

TEST(DeflateFault, SingleBitFlipsRejectOrDecodeBounded)
{
    // Every single-bit corruption of a small stream: exhaustive over
    // the header-heavy prefix, sampled over the body.
    Rng rng(52);
    const std::size_t kMaxOut = 1 << 20;
    std::uint64_t rejected = 0;
    std::uint64_t decoded = 0;

    for (int kind = 0; kind < 4; ++kind) {
        const auto sample = makeSample(kind, rng);
        for (const auto strategy : kStrategies) {
            const auto stream =
                deflateCompress(sample.data(), sample.size(), strategy);
            const std::size_t bits = stream.bytes.size() * 8;
            // All bits of the first 16 bytes (block header + code
            // lengths — the structurally interesting region), then 256
            // random body bits.
            std::vector<std::size_t> flips;
            for (std::size_t b = 0; b < std::min<std::size_t>(128, bits);
                 ++b)
                flips.push_back(b);
            for (int i = 0; i < 256; ++i)
                flips.push_back(rng.below(bits));

            for (const std::size_t bit : flips) {
                auto bad = stream.bytes;
                bad[bit / 8] ^= static_cast<std::uint8_t>(1u
                                                          << (bit % 8));
                const auto out = deflateTryDecompress(
                    bad.data(), bad.size(), kMaxOut);
                if (!out.has_value()) {
                    ++rejected;
                    continue;
                }
                ++decoded;
                // Accepted streams must respect the expansion cap.
                EXPECT_LE(out->size(), kMaxOut);
            }
        }
    }
    // Sanity on the harness itself: corruption must actually bite —
    // a fuzzer where nothing is ever rejected tests nothing.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(decoded, 0u) << "some flips (e.g. in literals) survive";
}

TEST(DeflateFault, TruncationsAlwaysReject)
{
    Rng rng(53);
    const auto sample = makeSample(0, rng);
    for (const auto strategy : kStrategies) {
        const auto stream =
            deflateCompress(sample.data(), sample.size(), strategy);
        // Cutting anywhere strictly inside the stream loses the final
        // block's tail: the decoder must hit end-of-input, not decode
        // a full result (stored blocks excepted only at len == full).
        for (std::size_t len = 0; len < stream.bytes.size(); ++len) {
            const auto out =
                deflateTryDecompress(stream.bytes.data(), len, 1 << 20);
            if (out.has_value()) {
                EXPECT_LT(out->size(), sample.size())
                    << "truncated to " << len;
            }
        }
    }
}

TEST(DeflateFault, RandomGarbageNeverCrashes)
{
    Rng rng(54);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> garbage(1 + rng.below(512));
        rng.fill(garbage.data(), garbage.size());
        const auto out =
            deflateTryDecompress(garbage.data(), garbage.size(), 1 << 16);
        if (out.has_value()) {
            EXPECT_LE(out->size(), std::size_t{1} << 16);
        }
    }
}

TEST(DeflateFault, ExpansionBombIsCapped)
{
    // A large run compresses to almost nothing; decompressing it under
    // a small cap must reject rather than allocate the full output.
    std::vector<std::uint8_t> run(1 << 16, 0xAA);
    const auto stream = deflateCompress(run.data(), run.size(),
                                        DeflateStrategy::kDynamic);
    ASSERT_LT(stream.bytes.size(), run.size() / 8);

    EXPECT_FALSE(deflateTryDecompress(stream.bytes.data(),
                                      stream.bytes.size(), 1024)
                     .has_value());
    const auto full = deflateTryDecompress(stream.bytes.data(),
                                           stream.bytes.size(), 1 << 16);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(*full, run);
}

TEST(DeflateFault, SeededFuzzIsDeterministic)
{
    auto run = [](std::uint64_t seed) {
        Rng rng(seed);
        const auto sample = makeSample(2, rng);
        const auto stream = deflateCompress(sample.data(), sample.size(),
                                            DeflateStrategy::kDynamic);
        std::vector<bool> verdicts;
        for (int i = 0; i < 128; ++i) {
            auto bad = stream.bytes;
            const std::size_t bit = rng.below(bad.size() * 8);
            bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            verdicts.push_back(
                deflateTryDecompress(bad.data(), bad.size(), 1 << 20)
                    .has_value());
        }
        return verdicts;
    };
    EXPECT_EQ(run(99), run(99));
}

} // namespace
