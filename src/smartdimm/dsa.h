/**
 * @file
 * Domain-Specific Accelerator interface (Sec. V). A DSA is configured
 * per offload with the context the CPU wrote through MMIO, then
 * consumes 64-byte cachelines as rdCAS commands deliver them —
 * possibly out of order for size-preserving ULPs, strictly in order
 * for streaming ones — and produces result lines for the Scratchpad.
 * Every line occupies the pipeline for kDsaLineLatency cycles.
 */

#ifndef SD_SMARTDIMM_DSA_H
#define SD_SMARTDIMM_DSA_H

#include <array>
#include <cstdint>

#include "common/types.h"

namespace sd::smartdimm {

static_assert(kLinesPerPage <= 64,
              "DsaJob::readyMask() packs line state into a uint64_t");

/** Kinds of offloads the prototype supports. */
enum class UlpKind : std::uint8_t
{
    kTlsEncrypt, ///< AES-GCM record protection (size-preserving)
    kDeflate,    ///< page-granular compression (non-size-preserving)
};

/**
 * Aggregate DSA activity counters, owned by the buffer device and
 * updated by the jobs it spawns (the jobs themselves are transient,
 * per-page objects). Busy time is lines x kDsaLineLatency.
 */
struct DsaStats
{
    std::uint64_t tls_lines = 0;          ///< cachelines encrypted
    std::uint64_t tls_messages = 0;       ///< records completed
    std::uint64_t deflate_lines = 0;      ///< cachelines consumed
    std::uint64_t deflate_pages = 0;      ///< pages compressed
    std::uint64_t deflate_output_bytes = 0;
    std::uint64_t deflate_order_faults = 0; ///< fence violations (poisoned)
};

/**
 * Per-offload DSA state machine. One instance exists per registered
 * source page; the arbiter feeds it lines and stages result lines
 * straight from its result page.
 */
class DsaJob
{
  public:
    virtual ~DsaJob() = default;

    /**
     * Process the source page's cacheline @p line (0..63) carrying
     * @p data. Zero or more result lines may become ready.
     */
    virtual void processLine(unsigned line, const std::uint8_t *data) = 0;

    /**
     * Bitmask of destination lines whose result is ready in
     * resultPage(): size-preserving ULPs ready a line as soon as its
     * source line is processed, streaming ULPs the whole page at
     * completion.
     */
    virtual std::uint64_t readyMask() = 0;

    /** The destination page; line @c i is valid while readyMask() has
     *  bit @c i set. */
    const std::uint8_t *resultPage() const { return result_.data(); }

  protected:
    std::array<std::uint8_t, kPageSize> result_{};
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_DSA_H
