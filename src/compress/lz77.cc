#include "compress/lz77.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "kernels/match.h"

namespace sd::compress {

namespace {

/** Hash of 3 bytes used for chain heads. */
inline std::uint32_t
hash3(const std::uint8_t *p)
{
    const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> 17; // 15-bit bucket
}

constexpr std::size_t kHashBuckets = 1u << 15;
constexpr std::int64_t kNoPos = -1;

/** Hash-chain probe limit. */
constexpr std::size_t kMaxChain = 64;

/** Chained-hash match finder state. */
struct Matcher
{
    std::vector<std::int64_t> head;
    std::vector<std::int64_t> prev;
    const std::uint8_t *data;
    std::size_t len;

    Matcher(const std::uint8_t *d, std::size_t l)
        : head(kHashBuckets, kNoPos), prev(l, kNoPos), data(d), len(l)
    {
    }

    void
    insert(std::size_t pos)
    {
        if (pos + kMinMatch > len)
            return;
        const std::uint32_t h = hash3(data + pos);
        prev[pos] = head[h];
        head[h] = static_cast<std::int64_t>(pos);
    }

    /** Longest match at @p pos; returns length (0 if < kMinMatch). */
    std::size_t
    bestMatch(std::size_t pos, std::size_t &distance) const
    {
        if (pos + kMinMatch > len)
            return 0;
        const std::size_t limit = std::min(kMaxMatch, len - pos);
        std::size_t best_len = 0;
        std::size_t best_dist = 0;
        std::int64_t cand = head[hash3(data + pos)];
        std::size_t chain = 0;

        while (cand != kNoPos && chain++ < kMaxChain) {
            const auto cpos = static_cast<std::size_t>(cand);
            if (cpos >= pos || pos - cpos > kMaxDistance)
                break;
            // Quick reject on the byte past the current best.
            if (best_len == 0 ||
                data[cpos + best_len] == data[pos + best_len]) {
                const std::size_t match_len =
                    kernels::matchLen(data + cpos, data + pos, limit);
                if (match_len > best_len) {
                    best_len = match_len;
                    best_dist = pos - cpos;
                    if (best_len >= limit)
                        break;
                }
            }
            cand = prev[cpos];
        }

        if (best_len < kMinMatch)
            return 0;
        distance = best_dist;
        return best_len;
    }
};

} // namespace

std::vector<Lz77Token>
lz77Compress(const std::uint8_t *data, std::size_t len,
             const Lz77Config &config, Lz77Stats *stats)
{
    std::vector<Lz77Token> tokens;
    tokens.reserve(len / 2 + 8);
    Lz77Stats local{};

    Matcher matcher(data, len);

    std::size_t pos = 0;
    // Lazy-match lookahead cache: when a match is deferred, the search
    // already ran at pos + 1 — and no table insert happens before the
    // next iteration reaches that position — so its result is reused
    // instead of re-walking the chain.
    bool have_cached = false;
    std::size_t cached_len = 0;
    std::size_t cached_dist = 0;
    while (pos < len) {
        std::size_t dist = 0;
        std::size_t match_len = 0;
        if (have_cached) {
            match_len = cached_len;
            dist = cached_dist;
            have_cached = false;
        } else {
            match_len = matcher.bestMatch(pos, dist);
        }

        // Lazy matching: if the next position has a strictly longer
        // match, emit a literal and defer.
        if (config.lazy && match_len >= kMinMatch && pos + 1 < len) {
            matcher.insert(pos);
            std::size_t next_dist = 0;
            const std::size_t next_len =
                matcher.bestMatch(pos + 1, next_dist);
            if (next_len > match_len) {
                tokens.push_back(Lz77Token::lit(data[pos]));
                ++local.literals;
                ++pos;
                have_cached = true;
                cached_len = next_len;
                cached_dist = next_dist;
                continue;
            }
            // Fall through: take the current match; pos already
            // inserted, start chaining from pos + 1.
            if (match_len > 0) {
                tokens.push_back(Lz77Token::match(
                    static_cast<std::uint16_t>(match_len),
                    static_cast<std::uint16_t>(dist)));
                ++local.matches;
                local.matched_bytes += match_len;
                for (std::size_t i = 1; i < match_len; ++i)
                    matcher.insert(pos + i);
                pos += match_len;
                continue;
            }
        }

        if (match_len >= kMinMatch) {
            tokens.push_back(Lz77Token::match(
                static_cast<std::uint16_t>(match_len),
                static_cast<std::uint16_t>(dist)));
            ++local.matches;
            local.matched_bytes += match_len;
            for (std::size_t i = 0; i < match_len; ++i)
                matcher.insert(pos + i);
            pos += match_len;
        } else {
            tokens.push_back(Lz77Token::lit(data[pos]));
            ++local.literals;
            matcher.insert(pos);
            ++pos;
        }
    }

    if (stats)
        *stats = local;
    return tokens;
}

std::vector<std::uint8_t>
lz77Decompress(const std::vector<Lz77Token> &tokens)
{
    std::vector<std::uint8_t> out;
    for (const auto &tok : tokens) {
        if (!tok.is_match) {
            out.push_back(tok.literal);
            continue;
        }
        SD_ASSERT(tok.distance >= 1 && tok.distance <= out.size(),
                  "LZ77 distance %u beyond history %zu", tok.distance,
                  out.size());
        const std::size_t start = out.size() - tok.distance;
        for (std::size_t i = 0; i < tok.length; ++i)
            out.push_back(out[start + i]); // may self-overlap (RLE)
    }
    return out;
}

} // namespace sd::compress
