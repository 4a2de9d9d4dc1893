/**
 * @file
 * The sharding CompCpy dispatcher: the host-side policy layer that
 * spreads offload work across every slot of a Topology.
 *
 *  - Flows hash-affinitize to a home DIMM (splitmix-style mix of the
 *    flow id), and a placed flow stays pinned to its slot until
 *    released, so the per-flow ordered-fence contract survives: all
 *    of a flow's ops enter one WorkQueue in submission order and that
 *    queue dispatches strictly FIFO.
 *  - A saturated home queue (occupancy at the shed threshold) or a
 *    degraded device sheds new flows to the least-loaded healthy
 *    sibling; when every queue is full the dispatcher returns
 *    kCpuPath and the caller runs the op on the CPU, mirroring the
 *    adaptive engine's fallback.
 *  - Large messages stripe across DIMMs: planStripe() splits one
 *    logical message into independent chunk records (chunk i gets
 *    message_id base+i and an IV uniquified by XOR of i, both
 *    slot-independent, so a striped run is bit-exact with the same
 *    chunks on a single DIMM), submitStripe() packs each slot's
 *    chunks into one batch descriptor and fans the per-slot
 *    completions back into a single callback.
 */

#ifndef SD_TOPO_DISPATCHER_H
#define SD_TOPO_DISPATCHER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "compcpy/queue.h"
#include "topo/heat.h"
#include "topo/topology.h"

namespace sd::topo {

/** Dispatcher policy knobs. */
struct DispatcherConfig
{
    /** Per-slot queue template (the id must differ from the engines'
     *  internal sync queue, id 0). */
    compcpy::WorkQueueConfig queue{
        .id = 1, .mode = compcpy::QueueMode::kShared};

    /** Home-queue occupancy fraction beyond which new flows shed. */
    double shed_occupancy = 0.75;

    /** Stripe chunk size (page multiple; deflate chunks additionally
     *  clamp to the device's single-page payload limit). */
    std::size_t stripe_chunk_bytes = 4 * kPageSize;

    /** Consecutive failed completions that mark a slot degraded. */
    unsigned degrade_after = 4;

    /** Hot/cold classifier for the two-tier policy (only consulted
     *  when the topology has far slots). */
    HeatConfig heat{};
};

/** Placement and shedding counters. */
struct DispatchStats
{
    std::uint64_t placements = 0;      ///< fresh flow placements
    std::uint64_t home_hits = 0;       ///< placed on the hash-home slot
    std::uint64_t shed_to_sibling = 0; ///< home saturated/degraded
    std::uint64_t shed_to_cpu = 0;     ///< every queue saturated
    std::uint64_t stripes = 0;         ///< striped messages planned
    std::uint64_t stripe_chunks = 0;   ///< chunk records across stripes
    std::uint64_t auto_degraded = 0;   ///< slots auto-marked degraded
    std::uint64_t tier_local_placements = 0; ///< placed on local tier
    std::uint64_t tier_cxl_placements = 0;   ///< placed on far tier
    std::uint64_t migrations_to_local = 0; ///< cold->hot repins
    std::uint64_t migrations_to_cxl = 0;   ///< hot->cold repins
};

/** Policy layer spreading CompCpy offloads across a Topology. */
class ShardDispatcher
{
  public:
    /** place() result meaning "run this op on the CPU path". */
    static constexpr unsigned kCpuPath = ~0u;

    explicit ShardDispatcher(Topology &topo,
                             const DispatcherConfig &config = {});

    ShardDispatcher(const ShardDispatcher &) = delete;
    ShardDispatcher &operator=(const ShardDispatcher &) = delete;

    Topology &topology() { return topo_; }
    unsigned slotCount() const { return topo_.slotCount(); }

    /** Hash-affinity home slot of @p flow (ignores load/health). */
    unsigned homeSlot(std::uint64_t flow) const;

    /**
     * Slot for @p flow's next op. A pinned flow keeps its slot (the
     * ordered-fence guarantee); a fresh flow lands on its home slot
     * unless that is saturated or degraded, in which case it sheds to
     * the least-loaded healthy sibling. @return kCpuPath — never
     * pinned, so the flow retries the DIMMs next op — when every
     * queue is saturated or every device degraded.
     *
     * With far (CXL) slots in the topology the placement is tiered:
     * every call records a touch with the heat classifier, hot flows
     * home on the local tier and cold flows on the far tier, and a
     * pinned flow whose tier no longer matches its heat migrates —
     * repinned on the other tier with a migration counted. A
     * saturated tier sheds to the other tier before falling back to
     * kCpuPath. Without far slots the behaviour is exactly the
     * untiered policy above.
     */
    unsigned place(std::uint64_t flow);

    /** Forget @p flow's pin (idle flows should release so a shed flow
     *  can migrate home once pressure clears). */
    void releaseFlow(std::uint64_t flow);

    /** The pinned slot of @p flow, or nullopt when unpinned. */
    std::optional<unsigned> pinnedSlot(std::uint64_t flow) const;

    compcpy::WorkQueue &queue(unsigned slot) { return queues_[slot]; }
    Topology::Slot &slot(unsigned s) { return topo_.slot(s); }

    /**
     * Submit @p desc to @p slot's queue, observing the completion for
     * the degraded-slot tracker before forwarding it to @p on_done.
     */
    std::optional<std::uint64_t>
    submit(unsigned slot, const compcpy::Descriptor &desc,
           std::uint16_t submitter = 0,
           compcpy::WorkQueue::CompletionCallback on_done = nullptr);

    /** Feed the degraded-slot tracker (for callers that submit to the
     *  queues directly): failures accumulate, success clears. */
    void noteCompletion(unsigned slot, compcpy::CompletionStatus status);

    void setDegraded(unsigned slot, bool degraded);
    bool degraded(unsigned slot) const { return degraded_[slot]; }

    // ----- striping ---------------------------------------------------------

    /** One chunk record of a striped message. */
    struct StripeChunk
    {
        unsigned slot = 0;
        compcpy::CompCpyParams params;
    };

    /** A striped message: independent chunk records + buffer geometry. */
    struct StripePlan
    {
        std::vector<StripeChunk> chunks;
        std::size_t total_bytes = 0;
        std::size_t chunk_bytes = 0; ///< all but the last chunk
    };

    /**
     * Split one logical message (@p base carries size, key, iv, base
     * message_id, ulp, ordered; its sbuf/dbuf are ignored) into chunk
     * records round-robined across the slots starting at @p flow's
     * home — or all onto @p force_slot when >= 0, which is how the
     * bit-exactness tests build the single-DIMM reference with
     * identical chunking. Chunk sbuf/dbuf are allocated on the owning
     * slot's driver; the caller stages payload bytes into the chunk
     * sbufs (writeSync + flushSync) before submitStripe().
     */
    StripePlan planStripe(const compcpy::CompCpyParams &base,
                          std::uint64_t flow, int force_slot = -1);

    /**
     * Pack each slot's chunks into one batch descriptor, submit them
     * all (submitForce: a striped message is already admitted — the
     * fan-in must not be half-dropped), and invoke @p done once with
     * the worst per-slot status when the last slot's batch completes.
     */
    void submitStripe(const StripePlan &plan,
                      std::function<void(compcpy::CompletionStatus)> done,
                      std::uint16_t submitter = 0);

    /** useSync + readResult of every chunk destination, concatenated
     *  in chunk order (full destination pages per chunk). */
    std::vector<std::uint8_t> readStripeResult(const StripePlan &plan);

    /** Return every chunk buffer to its slot's driver. */
    void releaseStripe(const StripePlan &plan);

    const DispatchStats &stats() const { return stats_; }
    const DispatcherConfig &config() const { return config_; }

    /** Register "dispatch" plus one "queue.chN.dM" provider per slot
     *  ("queue" at 1x1). The registry must not outlive this object. */
    void registerStats(trace::StatsRegistry &registry) const;

    /** Heat-classifier view (two-tier policy introspection). */
    const HeatClassifier &heat() const { return heat_; }

  private:
    /** Least-occupied healthy, non-full slot of @p slots, or kCpuPath. */
    unsigned
    leastLoadedHealthyIn(const std::vector<unsigned> &slots) const;
    /** Home-or-shed within one tier; kCpuPath when saturated. */
    unsigned placeIn(std::uint64_t flow,
                     const std::vector<unsigned> &tier);

    Topology &topo_;
    DispatcherConfig config_;
    std::deque<compcpy::WorkQueue> queues_; ///< one per slot, stable refs
    std::vector<bool> degraded_;
    std::vector<unsigned> failure_streak_; ///< consecutive bad records
    std::vector<unsigned> local_slots_; ///< slots on local channels
    std::vector<unsigned> far_slots_;   ///< slots behind CXL links
    std::unordered_map<std::uint64_t, unsigned> pins_;
    HeatClassifier heat_;
    DispatchStats stats_;
};

} // namespace sd::topo

#endif // SD_TOPO_DISPATCHER_H
