/**
 * @file
 * Hardware-constrained Deflate match finder modelling the SmartDIMM
 * Deflate DSA (Sec. V-B): an 8-byte parallelisation window processed
 * per buffer-device cycle, candidate substrings held in an 8-bank
 * Config Memory hash table covering a 4 KB history, best-effort bank
 * arbitration (conflicting candidates are dropped), and
 * oldest-replacement on hash-set overflow. Output is entropy-coded
 * with fixed Huffman tables for deterministic latency, so the
 * software `deflateDecompress` can verify every byte.
 */

#ifndef SD_COMPRESS_HW_DEFLATE_H
#define SD_COMPRESS_HW_DEFLATE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/lz77.h"

namespace sd::compress {

/** Candidate-memory banks with single-access-per-step ports
 *  relevant to conflicts (paper: 8 banks). */
inline constexpr std::size_t kHwBanks = 8;

/** Entries per bank (hash-table ways share a bank row). */
inline constexpr std::size_t kHwEntriesPerBank = 512;

/** History window the DSA can reference (paper: 4 KB). */
inline constexpr std::size_t kHwHistory = 4096;

/** Policy of the hardware match pipeline. The pipeline can merge
 *  matches up to the Deflate format's kMaxMatch per step chain. */
struct HwDeflateConfig
{
    /** Bytes consumed per pipeline step (paper: 8). */
    std::size_t parallel_window = 8;

    /** When true, bank conflicts drop the younger candidate
     *  (the paper's best-effort policy); when false, an idealised
     *  multi-ported memory is modelled (ablation). */
    bool drop_on_conflict = true;
};

/** Activity counters for power modelling and ablation benches. */
struct HwDeflateStats
{
    std::uint64_t steps = 0;            ///< pipeline steps (cycles)
    std::uint64_t candidates = 0;       ///< hash probes issued
    std::uint64_t bank_conflicts = 0;   ///< candidates dropped
    std::uint64_t matches = 0;
    std::uint64_t literals = 0;
    std::uint64_t replaced_oldest = 0;  ///< hash overflow evictions
};

/**
 * Match-find @p len bytes the way the DSA would, returning Deflate
 * tokens. The token stream is valid LZ77 (distances bounded by the
 * 4 KB history), so ratio loss relative to the software matcher is
 * attributable purely to the hardware constraints.
 */
std::vector<Lz77Token> hwDeflateTokens(const std::uint8_t *data,
                                       std::size_t len,
                                       const HwDeflateConfig &config = {},
                                       HwDeflateStats *stats = nullptr);

/**
 * Full DSA compression: hardware match finding + fixed-Huffman
 * encoding, one 4 KB page at a time (the software stack compresses at
 * page granularity, Sec. V-C).
 */
std::vector<std::uint8_t> hwDeflateCompress(const std::uint8_t *data,
                                            std::size_t len,
                                            const HwDeflateConfig &config = {},
                                            HwDeflateStats *stats = nullptr);

} // namespace sd::compress

#endif // SD_COMPRESS_HW_DEFLATE_H
