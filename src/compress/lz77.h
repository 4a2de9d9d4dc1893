/**
 * @file
 * LZ77 match finding (the first Deflate stage, Sec. II). Produces a
 * token stream of literals and (length, distance) matches that both
 * the software encoder and the hardware-constrained DSA model consume.
 */

#ifndef SD_COMPRESS_LZ77_H
#define SD_COMPRESS_LZ77_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sd::compress {

/** Minimum/maximum match lengths per the Deflate format. */
inline constexpr std::size_t kMinMatch = 3;
inline constexpr std::size_t kMaxMatch = 258;

/** Maximum back-reference distance per the Deflate format. */
inline constexpr std::size_t kMaxDistance = 32768;

/** One LZ77 token: either a literal byte or a back-reference. */
struct Lz77Token
{
    bool is_match = false;
    std::uint8_t literal = 0;   ///< valid when !is_match
    std::uint16_t length = 0;   ///< valid when is_match (3..258)
    std::uint16_t distance = 0; ///< valid when is_match (1..32768)

    static Lz77Token
    lit(std::uint8_t b)
    {
        return Lz77Token{false, b, 0, 0};
    }

    static Lz77Token
    match(std::uint16_t len, std::uint16_t dist)
    {
        return Lz77Token{true, 0, len, dist};
    }
};

/** Tuning knobs for the software match finder (its history window is
 *  the format's whole kMaxDistance). */
struct Lz77Config
{
    bool lazy = true; ///< one-token lazy matching
};

/** Aggregate statistics from a match-finding pass. */
struct Lz77Stats
{
    std::uint64_t literals = 0;
    std::uint64_t matches = 0;
    std::uint64_t matched_bytes = 0;
};

/**
 * Greedy/lazy chained-hash LZ77 over @p len bytes of @p data.
 * @param stats optional out-param for token statistics.
 */
std::vector<Lz77Token> lz77Compress(const std::uint8_t *data,
                                    std::size_t len,
                                    const Lz77Config &config = {},
                                    Lz77Stats *stats = nullptr);

/** Reconstruct the original bytes from a token stream. */
std::vector<std::uint8_t> lz77Decompress(
    const std::vector<Lz77Token> &tokens);

} // namespace sd::compress

#endif // SD_COMPRESS_LZ77_H
