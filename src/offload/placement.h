/**
 * @file
 * Accelerator-placement interface. Each placement converts "process
 * one ULP message of S bytes" into the three resources the server
 * simulation arbitrates: CPU cycles, DRAM bytes, and added latency.
 * The LLC leak fraction (how much of the streamed message spills to
 * DRAM, Obs. 3) couples the placements to cache contention.
 */

#ifndef SD_OFFLOAD_PLACEMENT_H
#define SD_OFFLOAD_PLACEMENT_H

#include <cstdint>
#include <memory>
#include <string>

#include "offload/cost_model.h"
#include "trace/trace.h"

namespace sd::offload {

/** ULP processed by the server. */
enum class Ulp : std::uint8_t
{
    kNone,       ///< plain HTTP (baseline for Fig. 3)
    kTlsEncrypt, ///< HTTPS record protection
    kDeflate,    ///< HTTP response compression
};

/** The placements of Fig. 11/12, plus the CXL far-memory tier. */
enum class PlacementKind : std::uint8_t
{
    kCpu,
    kSmartNic,
    kQuickAssist,
    kSmartDimm,
    kCxlMem, ///< SmartDIMM behind a CXL.mem link (withheld completion)
};

/** Every placement, for tests/sweeps that must cover new tiers. */
inline constexpr PlacementKind kAllPlacementKinds[] = {
    PlacementKind::kCpu,        PlacementKind::kSmartNic,
    PlacementKind::kQuickAssist, PlacementKind::kSmartDimm,
    PlacementKind::kCxlMem,
};

/** Per-message resource consumption. */
struct UlpCost
{
    double cpu_cycles = 0;   ///< on-core work + stalls
    double dram_bytes = 0;   ///< memory traffic attributable to the ULP
    double latency_us = 0;   ///< added per-message latency
    bool supported = true;   ///< e.g. SmartNIC cannot do Deflate
};

/** Environment of one evaluation point. */
struct LoadContext
{
    double leak_fraction = 1.0;  ///< of streamed lines spilling to DRAM
    double loss_events_per_message = 0.0; ///< TCP recoveries (Fig. 2)
    double output_ratio = 1.0;   ///< compressed-output / input size
    /**
     * Extra per-miss latency when the message's pages live in far
     * (CXL-attached) memory, ns. Zero for a hot/local working set.
     * Host-side placements pay it on every demand miss; the CXL tier
     * transforms near-data and only pays it on its control path.
     */
    double far_mem_extra_ns = 0.0;
};

/** Evaluation counters accumulated across messageCost() calls. */
struct PlacementEvalStats
{
    std::uint64_t evaluations = 0;  ///< cost-model queries
    std::uint64_t unsupported = 0;  ///< queries the placement rejected
    double bytes = 0;               ///< message bytes evaluated
    double cpu_cycles = 0;          ///< summed predicted on-core work
    double dram_bytes = 0;          ///< summed predicted DRAM traffic
};

/** One accelerator placement. */
class Placement
{
  public:
    virtual ~Placement() = default;

    /** Short name for report rows. */
    virtual std::string name() const = 0;
    virtual PlacementKind kind() const = 0;

    /** Resource cost of processing one @p bytes message of @p ulp. */
    UlpCost messageCost(Ulp ulp, std::size_t bytes,
                        const LoadContext &ctx) const;

    /** Contribute the evaluation counters to a stats dump. */
    void reportStats(trace::StatsBlock &block) const;

  protected:
    /** Per-placement cost model, wrapped by messageCost(). */
    virtual UlpCost computeCost(Ulp ulp, std::size_t bytes,
                                const LoadContext &ctx) const = 0;

  private:
    mutable PlacementEvalStats eval_;
};

/** Factory over the placements of the evaluation. */
std::unique_ptr<Placement> makePlacement(PlacementKind kind,
                                         const CostModel &model = {});

} // namespace sd::offload

#endif // SD_OFFLOAD_PLACEMENT_H
