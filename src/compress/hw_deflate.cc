#include "compress/hw_deflate.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "compress/deflate.h"
#include "kernels/match.h"

namespace sd::compress {

namespace {

/** Hash of 4 bytes, as a pipelined hasher would compute per lane. */
inline std::uint32_t
hash4(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v * 2654435761u;
}

/** One candidate slot in the banked config-memory hash table. */
struct Slot
{
    std::uint64_t position = 0; ///< absolute input offset
    std::uint64_t inserted = 0; ///< age counter for oldest-replacement
    bool valid = false;
};

} // namespace

std::vector<Lz77Token>
hwDeflateTokens(const std::uint8_t *data, std::size_t len,
                const HwDeflateConfig &config, HwDeflateStats *stats)
{
    SD_ASSERT(config.parallel_window >= 1,
              "degenerate hardware deflate config");

    HwDeflateStats local{};
    std::vector<Lz77Token> tokens;
    tokens.reserve(len / 2 + 8);

    // Banked hash table: bank = hash % banks, set = hash / banks %
    // entries. Each (bank, set) holds a single candidate — the paper's
    // fixed-size table with oldest-replacement degenerates to direct
    // mapped per set; overflow replaces the older entry.
    std::vector<Slot> table(kHwBanks * kHwEntriesPerBank);
    std::uint64_t age = 0;

    // Per-step bank arbitration, epoch-stamped: a bank is busy this
    // step iff its stamp equals the current epoch. O(1) per probe with
    // no per-step clearing or allocation.
    std::vector<std::uint64_t> bank_epoch(kHwBanks, 0);
    std::uint64_t epoch = 0;
    std::vector<std::int64_t> lane_candidate(config.parallel_window);

    std::size_t pos = 0;
    while (pos < len) {
        ++local.steps;
        const std::size_t lanes =
            std::min(config.parallel_window, len - pos);

        // Phase 1: all lanes probe the hash table concurrently; each
        // bank serves one probe per cycle — further probes to the same
        // bank are dropped in best-effort mode.
        ++epoch;
        std::fill(lane_candidate.begin(),
                  lane_candidate.begin() + static_cast<std::ptrdiff_t>(lanes),
                  std::int64_t{-1});
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            const std::size_t p = pos + lane;
            if (p + 4 > len)
                break;
            const std::uint32_t h = hash4(data + p);
            const std::size_t bank = h % kHwBanks;
            const std::size_t set = (h / kHwBanks) % kHwEntriesPerBank;
            ++local.candidates;

            if (config.drop_on_conflict && bank_epoch[bank] == epoch) {
                ++local.bank_conflicts;
                continue; // candidate discarded, no insert either
            }
            bank_epoch[bank] = epoch;

            Slot &slot = table[bank * kHwEntriesPerBank + set];
            if (slot.valid &&
                pos + lane >= slot.position &&
                pos + lane - slot.position <= kHwHistory)
                lane_candidate[lane] =
                    static_cast<std::int64_t>(slot.position);

            if (slot.valid)
                ++local.replaced_oldest;
            slot.position = p;
            slot.inserted = age++;
            slot.valid = true;
        }

        // Phase 2: resolve lanes left-to-right. A match covering later
        // lanes consumes them (the pipeline merges extensions).
        std::size_t lane = 0;
        while (lane < lanes) {
            const std::size_t p = pos + lane;
            std::size_t match_len = 0;
            std::size_t dist = 0;
            if (lane_candidate[lane] >= 0) {
                const auto cpos =
                    static_cast<std::size_t>(lane_candidate[lane]);
                const std::size_t limit =
                    std::min(kMaxMatch, len - p);
                // Comparing input against input handles overlapping
                // (distance < length) matches correctly by induction,
                // the same shift-register trick the pipeline uses.
                const std::size_t ml =
                    kernels::matchLen(data + cpos, data + p, limit);
                if (ml >= kMinMatch) {
                    match_len = ml;
                    dist = p - cpos;
                }
            }
            if (match_len >= kMinMatch && dist >= 1 &&
                dist <= kHwHistory) {
                tokens.push_back(Lz77Token::match(
                    static_cast<std::uint16_t>(match_len),
                    static_cast<std::uint16_t>(dist)));
                ++local.matches;
                lane += match_len; // may run past the window
            } else {
                tokens.push_back(Lz77Token::lit(data[p]));
                ++local.literals;
                ++lane;
            }
        }
        // A match in the last lanes may overrun the window; those
        // bytes are already encoded, so skip them next step.
        pos += std::max(lanes, lane);
    }

    if (stats)
        *stats = local;
    return tokens;
}

std::vector<std::uint8_t>
hwDeflateCompress(const std::uint8_t *data, std::size_t len,
                  const HwDeflateConfig &config, HwDeflateStats *stats)
{
    HwDeflateStats total{};
    std::vector<std::uint8_t> out;

    // Page-granular compression, each page an independent stream
    // prefixed by a 16-bit compressed-length header so the consumer
    // can find page boundaries (the software stack writes each page to
    // the socket separately, Sec. V-C).
    for (std::size_t off = 0; off < len; off += 4096) {
        const std::size_t take = std::min<std::size_t>(4096, len - off);
        HwDeflateStats page_stats{};
        const auto tokens =
            hwDeflateTokens(data + off, take, config, &page_stats);
        auto page = deflateEncodeTokens(tokens, DeflateStrategy::kFixed);
        // Incompressible pages fall back to a stored block, exactly as
        // the fixed-function encoder must to bound expansion.
        if (page.size() > take) {
            auto stored = deflateCompress(data + off, take,
                                          DeflateStrategy::kStored);
            if (stored.bytes.size() < page.size())
                page = std::move(stored.bytes);
        }

        total.steps += page_stats.steps;
        total.candidates += page_stats.candidates;
        total.bank_conflicts += page_stats.bank_conflicts;
        total.matches += page_stats.matches;
        total.literals += page_stats.literals;
        total.replaced_oldest += page_stats.replaced_oldest;

        SD_ASSERT(page.size() <= 0xffff, "page stream overflow");
        out.push_back(static_cast<std::uint8_t>(page.size() & 0xff));
        out.push_back(static_cast<std::uint8_t>(page.size() >> 8));
        out.insert(out.end(), page.begin(), page.end());
    }

    if (stats)
        *stats = total;
    return out;
}

} // namespace sd::compress
