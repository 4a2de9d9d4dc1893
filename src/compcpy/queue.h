/**
 * @file
 * DSA-style descriptor/work-queue front end for the CompCpy engine.
 *
 * Mirroring the work-queue model of Intel's Data Streaming
 * Accelerator (the accelerator SmartDIMM's offload interface is
 * patterned on), software submits `Descriptor`s — one op, or a batch
 * packing N small messages — into a `WorkQueue`, rings a per-queue
 * MMIO doorbell, and reaps `CompletionRecord`s by polling. A queue is
 * *dedicated* (bound to the first submitter; foreign submissions are
 * rejected, like a DWQ reserved for one client) or *shared* (any
 * submitter; entries arbitrate by submission order, like an ENQCMD
 * SWQ). Dispatch is strictly FIFO per queue with at most
 * `max_inflight` ops executing concurrently, which is what lets one
 * core keep many offloads in flight on the single simulated channel.
 *
 * Completion protocol: when every op of a descriptor finishes, the
 * engine-side of the queue writes the device's kQueueComplete MMIO
 * register (the device increments its per-queue completed count —
 * this always lands), then writes the host-visible completion record.
 * The record write is the lossy step: the kLostCompletion fault site
 * drops it, and poll-timeout recovery re-derives the loss by reading
 * kQueueStatus and diffing the device count against host records,
 * then synthesises the missing records (flagged `recovered`). Bounded
 * recovery that still cannot account for a descriptor yields a
 * kBailout record — the zero-panic contract of the fault layer.
 *
 * Each buffer device has exactly one WorkQueue: its topo::Topology
 * slot owns it, and every CompCpy — a synchronous run(), a
 * dispatcher submit, an adaptive-engine batch — enters the device
 * through it. Tests and benches that study queue geometry may build
 * a private WorkQueue over a slot's engine.
 *
 * Concurrency contract: a WorkQueue belongs to one simulated system
 * and is single-owner like the EventQueue that drives it; the
 * SingleOwnerChecker spot-checks that at runtime. "Multiple
 * submitters" are logical submitter ids within the owning thread, not
 * OS threads.
 */

#ifndef SD_COMPCPY_QUEUE_H
#define SD_COMPCPY_QUEUE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "compcpy/compcpy.h"

namespace sd::compcpy {

/** DSA-style queue client models. */
enum class QueueMode : std::uint8_t
{
    kDedicated = 0, ///< bound to the first submitter (DWQ)
    kShared,        ///< any submitter, arbitration by submit order (SWQ)
};

/**
 * How a completion reaches the host. kPollRecord is the DSA model:
 * the device writes a host-visible record the client polls for (the
 * write may drop — kLostCompletion). kWithheldResponse is the CXL.mem
 * far-tier model: the host issues one read of the completion register
 * and the CXL controller *withholds the response* until the offload
 * finishes, so delivery of the read response IS the completion — no
 * polling, no lossy record write. The polls the host would have
 * issued while waiting are tallied as saved traffic. The failure mode
 * shifts accordingly: kCxlTimeout drops the withheld response, and the
 * existing poll-timeout recovery synthesises the record (degraded).
 */
enum class CompletionSignal : std::uint8_t
{
    kPollRecord = 0,   ///< record array + host polling (local DSA)
    kWithheldResponse, ///< CXL controller holds the read open
};

/** Final status of a descriptor, mirroring the PR 5 fault outcomes. */
enum class CompletionStatus : std::uint8_t
{
    kSuccess = 0,
    kDegraded, ///< ALERT_N-exhausted reads degraded at least one op
    kRejected, ///< the device rejected at least one page registration
    kBailout,  ///< a bounded recovery loop gave up (recycle or reap)
};

/** Stable short name (test output and stats dumps). */
const char *completionStatusName(CompletionStatus status);

/**
 * One work-queue entry: a single CompCpy op, or a batch descriptor
 * packing several small messages that fan out to ops and fan back in
 * to one completion record.
 */
struct Descriptor
{
    std::vector<CompCpyParams> ops;

    static Descriptor
    single(const CompCpyParams &params)
    {
        Descriptor d;
        d.ops.push_back(params);
        return d;
    }

    static Descriptor
    batch(std::vector<CompCpyParams> ops)
    {
        Descriptor d;
        d.ops = std::move(ops);
        return d;
    }
};

/** One entry of the completion-record array, reaped via poll(). */
struct CompletionRecord
{
    std::uint64_t id = 0;        ///< descriptor id (per-queue, from 1)
    std::uint16_t queue = 0;     ///< owning queue id
    std::uint16_t submitter = 0; ///< logical submitter that enqueued it
    CompletionStatus status = CompletionStatus::kSuccess;
    bool recovered = false; ///< synthesised by poll-timeout recovery
    std::uint32_t ops = 0;  ///< ops the descriptor packed
    Tick submitted = 0;     ///< accepted into the queue
    Tick dispatched = 0;    ///< first op started executing
    Tick completed = 0;     ///< record written (or recovered)
};

/** Outstanding-descriptor age that arms poll-timeout recovery. */
inline constexpr Tick kPollTimeout = 100'000'000; // 100 us

/**
 * Modelled host poll cadence while a descriptor is outstanding — the
 * withheld-response mode uses it to count the polls (and their MMIO
 * read traffic) the far tier saved.
 */
inline constexpr Tick kPollInterval = 2'000'000; // 2 us

/** Geometry and policy of one work queue. */
struct WorkQueueConfig
{
    std::uint16_t id = 0; ///< < smartdimm::kMaxDeviceQueues
    QueueMode mode = QueueMode::kDedicated;
    std::size_t depth = 16;        ///< max unrecorded descriptors
    std::size_t max_inflight = 8;  ///< ops executing concurrently
    /** Completion delivery model (see CompletionSignal). */
    CompletionSignal signal = CompletionSignal::kPollRecord;
};

/** Outcome counters for one work queue. */
struct WorkQueueStats
{
    std::uint64_t submitted = 0;     ///< descriptors accepted
    std::uint64_t submitted_ops = 0; ///< ops across accepted descriptors
    std::uint64_t batches = 0;       ///< descriptors packing > 1 op
    std::uint64_t rejected_full = 0; ///< backpressured submits
    std::uint64_t rejected_submitter = 0; ///< dedicated-mode foreigners
    std::uint64_t completions = 0;   ///< records written (incl. recovered)
    std::uint64_t degraded = 0;      ///< records with kDegraded
    std::uint64_t rejected = 0;      ///< records with kRejected
    std::uint64_t bailouts = 0;      ///< records with kBailout
    std::uint64_t reaped = 0;        ///< records handed to poll()/wait()
    std::uint64_t lost_records = 0;  ///< injected completion drops
    std::uint64_t recovered_records = 0; ///< synthesised by recovery
    std::uint64_t recovery_polls = 0;    ///< kQueueStatus reads issued
    std::uint64_t doorbells = 0;     ///< kQueueDoorbell writes issued
    std::uint64_t withheld_reads = 0; ///< held completion reads issued
    std::uint64_t withheld_completions = 0; ///< responses delivered
    std::uint64_t withheld_timeouts = 0; ///< injected response drops
    std::uint64_t polls_saved = 0;   ///< polls the held read replaced
    std::uint64_t poll_bytes_saved = 0; ///< MMIO bytes those polls cost
};

/**
 * The submission/completion ring. All entry points are single-owner
 * (see the file comment); submit() and the reaping calls may be
 * interleaved freely from event-queue callbacks of the owning thread.
 */
class WorkQueue
{
  public:
    using CompletionCallback =
        std::function<void(const CompletionRecord &)>;

    explicit WorkQueue(CompCpyEngine &engine,
                       const WorkQueueConfig &config = {});
    ~WorkQueue();

    WorkQueue(const WorkQueue &) = delete;
    WorkQueue &operator=(const WorkQueue &) = delete;

    /**
     * Enqueue @p desc. @return the descriptor id, or nullopt when the
     * queue backpressures (occupancy at depth, an injected kQueueFull,
     * or a dedicated queue refusing a foreign @p submitter). With an
     * @p on_complete callback the record is consumed by the callback
     * the moment it is written (an always-polling client); without
     * one it lands in the completion-record array for poll()/wait().
     */
    std::optional<std::uint64_t>
    submit(const Descriptor &desc, std::uint16_t submitter = 0,
           CompletionCallback on_complete = nullptr);

    /**
     * submit() that skips the occupancy/fault backpressure checks —
     * the bounded-retry escape hatch of run(), mirroring the
     * Force-Recycle bailout (a stuck "queue full" signal must not
     * wedge a synchronous caller forever).
     */
    std::uint64_t submitForce(const Descriptor &desc,
                              std::uint16_t submitter = 0,
                              CompletionCallback on_complete = nullptr);

    /**
     * Reap every completion record written so far (does not pump the
     * event queue). Also checks outstanding descriptors against the
     * poll timeout and starts lost-completion recovery when one aged
     * out.
     */
    std::vector<CompletionRecord> poll();

    /**
     * Drive the event queue until descriptor @p id's record is reaped
     * and return it. Runs lost-completion recovery when the
     * simulation idles with the record still missing; after bounded
     * recovery rounds the record is synthesised with kBailout.
     */
    CompletionRecord wait(std::uint64_t id);

    /** wait() for everything outstanding (records stay reapable). */
    void drain();

    /**
     * Synchronous CompCpy: submit a single-op descriptor, then wait()
     * for its record. A rejected submit pumps the event queue and
     * retries a bounded number of times, then force-submits.
     */
    CompletionRecord run(const CompCpyParams &params);

    /** Descriptors accepted but not yet completion-recorded. */
    std::size_t occupancy() const;

    /** The engine this queue dispatches to. */
    CompCpyEngine &engine() { return engine_; }

    const WorkQueueConfig &config() const { return config_; }
    const WorkQueueStats &stats() const { return stats_; }

    /** submit→record latency distribution (ticks). */
    const LogHistogram &completionLatency() const { return latency_; }

    /** Peak unrecorded-descriptor occupancy. */
    std::int64_t peakOccupancy() const { return occupancy_.peak(); }

    /** Contribute queue counters to a stats dump. */
    void reportStats(trace::StatsBlock &block) const;

  private:
    /** Lifecycle state of one accepted descriptor. */
    struct Pending
    {
        std::uint64_t id = 0;
        Descriptor desc;
        std::uint16_t submitter = 0;
        CompletionCallback on_complete;
        std::vector<std::uint32_t> spans; ///< one per op (0 untraced)
        Tick submitted = 0;
        Tick dispatched = 0;
        bool doorbell_landed = false; ///< device saw the submission
        std::size_t ops_started = 0;
        std::size_t ops_done = 0;
        bool degraded = false;
        bool rejected = false;
        bool bailout = false;
        bool executed = false; ///< every op finished in the engine
        bool recorded = false; ///< completion record written
    };

    std::uint64_t accept(const Descriptor &desc, std::uint16_t submitter,
                         CompletionCallback on_complete);
    void ringDoorbell(const std::shared_ptr<Pending> &p);
    void tryDispatch();
    void opDone(const std::shared_ptr<Pending> &p,
                const OpOutcome &outcome);
    void descriptorExecuted(const std::shared_ptr<Pending> &p);
    void writeRecord(const std::shared_ptr<Pending> &p, bool recovered);
    CompletionStatus statusOf(const Pending &p) const;
    /** Issue one kQueueStatus read and synthesise missing records. */
    void recoverLost();
    /** Give up on @p p after bounded recovery: kBailout record. */
    void forceBailout(const std::shared_ptr<Pending> &p);

    CompCpyEngine &engine_;
    WorkQueueConfig config_;
    /** Bound owner of a dedicated queue (first accepted submitter). */
    std::optional<std::uint16_t> owner_submitter_;
    std::uint64_t next_id_ = 1;
    /** Unrecorded descriptors in submission order (recovery reaps the
     *  oldest executed-but-unrecorded entries first). */
    std::deque<std::shared_ptr<Pending>> order_;
    /** Accepted descriptors with ops still to start, FIFO. */
    std::deque<std::shared_ptr<Pending>> dispatch_;
    /** The completion-record array, reaped by poll()/wait(). */
    std::vector<CompletionRecord> ready_;
    std::size_t inflight_ops_ = 0;
    bool recovery_inflight_ = false;
    WorkQueueStats stats_;
    Gauge occupancy_;
    Histogram occ_hist_;
    LogHistogram latency_;
    /** Single-owner contract spot check (see thread_annotations.h). */
    SingleOwnerChecker owner_;
};

} // namespace sd::compcpy

#endif // SD_COMPCPY_QUEUE_H
