/**
 * @file
 * Per-channel DDR4 memory controller: FR-FCFS scheduling over split
 * read/write queues with watermark-based write draining. The write
 * batching plus bus-turnaround costs produce the >1 us gap between a
 * CompCpy's sbuf rdCAS and the matching dbuf wrCAS that SmartDIMM's
 * inline offload depends on (Sec. IV-D).
 */

#ifndef SD_MEM_MEMORY_CONTROLLER_H
#define SD_MEM_MEMORY_CONTROLLER_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "fault/fault.h"
#include "mem/address_map.h"
#include "mem/bank_state.h"
#include "mem/dram_command.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/slot_pool.h"
#include "sim/unique_function.h"
#include "trace/trace.h"

namespace sd::mem {

/**
 * How a request completed. kDegraded marks a read that exhausted its
 * ALERT_N retry budget: the data buffer may hold stale bytes, and the
 * host stack is expected to fall back (e.g. CPU placement) rather than
 * trust the line.
 */
enum class MemStatus : std::uint8_t
{
    kOk,
    kDegraded,
};

/**
 * Completion callback: tick the data burst finished, plus status.
 * Move-only (see sim/unique_function.h): completion state rides the
 * request through enqueue -> issue -> data burst without a single
 * copy or forced heap allocation.
 */
using MemCallback = UniqueFunctionT<void(Tick, MemStatus)>;

/** Write-drain watermarks: enter drain mode at the high mark, leave
 *  it at the low one. */
inline constexpr unsigned kWriteHighWatermark = 48;
inline constexpr unsigned kWriteLowWatermark = 16;

// ALERT_N retry policy. Retries up to `kAlertFastRetries` requeue
// immediately (the common S13 case resolves within a few rdCAS round
// trips); past that each requeue backs off exponentially so a wedged
// DSA cannot monopolise the channel; at `kAlertMaxRetries` the read
// completes with MemStatus::kDegraded instead of aborting the
// simulation.
inline constexpr unsigned kAlertFastRetries = 8;
inline constexpr unsigned kAlertMaxRetries = 64;
/** First backoff, in command clocks. */
inline constexpr Cycles kAlertBackoffBase = 64;
/** Backoff ceiling, in command clocks. */
inline constexpr Cycles kAlertBackoffCap = 8192;

/** Controller statistics. */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;   ///< row closed: ACT needed
    std::uint64_t row_conflicts = 0; ///< other row open: PRE + ACT
    std::uint64_t alert_retries = 0;
    std::uint64_t spurious_alerts = 0; ///< fault-injected ALERT_N storms
    std::uint64_t alert_backoffs = 0;  ///< retries past the fast window
    std::uint64_t degraded_reads = 0;  ///< retry budget exhausted
    std::uint64_t turnarounds = 0;
    std::uint64_t sched_passes = 0;      ///< full FR-FCFS passes run
    std::uint64_t wakeups_requested = 0; ///< requestPass() calls
    std::uint64_t wakeups_coalesced = 0; ///< covered by a pending pass

    std::uint64_t
    bytesMoved() const
    {
        return (reads + writes) * kCacheLineSize;
    }
};

/**
 * One channel's controller. Requests enter at line granularity; data
 * moves to/from the attached DimmDevice; every command is also offered
 * to an optional CommandObserver.
 */
class MemoryController
{
  public:
    MemoryController(EventQueue &events, const AddressMap &map,
                     unsigned channel, DimmDevice &dimm);

    /**
     * Enqueue a 64-byte read. @p data must stay valid until the
     * callback fires; the device fills it at completion time.
     */
    void enqueueRead(Addr line_addr, std::uint8_t *data, MemCallback cb);

    /**
     * Enqueue a 64-byte write. Data is captured by value (the burst
     * travels with the command, as on the wire). Optional callback
     * fires when the burst has been issued to the device.
     */
    void enqueueWrite(Addr line_addr, const std::uint8_t *data,
                      MemCallback cb = nullptr);

    /** Attach a command-trace observer (may be null). */
    void setObserver(CommandObserver *observer) { observer_ = observer; }

    /**
     * Attach a fault plan (may be null; not owned). Sites consulted:
     * kAlertStorm (a completing read is turned into a spurious ALERT_N
     * requeue) and kWriteDrainDelay (entering write-drain mode is
     * suppressed for one scheduler pass).
     */
    void setFaultPlan(fault::FaultPlan *plan) { fault_plan_ = plan; }

    /**
     * @return pending request count: both queues, CASes waiting for
     * their data phase, and reads parked in an ALERT_N backoff.
     */
    std::size_t pending() const { return pool_.live(); }

    const ControllerStats &stats() const { return stats_; }

    /** Channel data-bus busy cycles (bandwidth-utilisation metric). */
    std::uint64_t busBusyCycles() const { return bus_busy_cycles_; }

    /** Contribute this channel's counters to a stats dump. */
    void reportStats(trace::StatsBlock &block) const;

    /**
     * Testing knob: disable scheduler-wakeup coalescing, reverting to
     * one full FR-FCFS pass per requested wakeup. The command stream
     * must be identical either way (the coalescing regression test
     * proves it); coalesced mode just executes fewer events. Not for
     * production use.
     */
    void setCoalesceWakeups(bool on) { coalesce_wakeups_ = on; }

  private:
    /**
     * One request's state. It lives in a pool slot from enqueue until
     * its callback is about to run; the queues and the CAS data-phase
     * event name it by slot only, so scheduling never moves it.
     */
    struct Request
    {
        Addr addr = 0;
        DramCoord coord;
        std::uint32_t flat_bank = 0; ///< precomputed FR-FCFS scan key
        std::uint8_t *read_data = nullptr;
        std::array<std::uint8_t, kCacheLineSize> write_data{};
        MemCallback cb;
        Tick enqueued = 0;
        Tick cas_at = 0; ///< issue tick of the request's CAS
        unsigned retries = 0;
        bool needed_act = false; ///< ACT was issued for this request
    };

    /** FR-FCFS queue entry: scan key plus the request's pool slot. */
    struct Key
    {
        std::uint64_t row;
        std::uint32_t flat_bank;
        std::uint32_t slot;
    };
    static_assert(sizeof(Key) == 16, "queue keys stay 16-byte PODs");

    void kick();           ///< request a pass at the next clock edge
    /**
     * The coalesced wakeup helper: every scheduler wakeup flows
     * through here (sdcheck's wakeup-bypass rule enforces it). A
     * request already covered by a pending pass at an earlier-or-
     * equal tick is dropped — the pass re-derives any later wakeup
     * it still needs, because the FR-FCFS pick is stable between
     * passes and computed issue ticks never recede.
     */
    void requestPass(Tick when);
    /** Claim a slot for a new request and fill its common fields. */
    std::uint32_t admit(Addr line_addr, MemCallback cb);
    /** Append @p slot's key to the read queue and wake the scheduler. */
    void queueRead(std::uint32_t slot);
    void readDataPhase(std::uint32_t slot);
    void writeDataPhase(std::uint32_t slot);
    /** Release @p slot, then run its callback with @p status. */
    void complete(std::uint32_t slot, MemStatus status);
    void retryAlert(std::uint32_t slot, bool spurious);
    void updateWriteDrain(); ///< watermark hysteresis + injected delay
    void schedulePass();   ///< pick and issue the next command
    bool issueRequest(std::vector<Key> &queue, std::size_t index,
                      bool is_write);
    /** FR-FCFS pick in @p queue, scanning from @p known_misses, the
     *  count of leading keys known not to be row hits (updated). */
    std::size_t pickFrFcfs(const std::vector<Key> &queue,
                           std::size_t &known_misses) const;
    DdrCommand command(DdrCommandType type, const Request &req,
                       Tick at) const;
    void emit(DdrCommandType type, std::uint32_t slot, Tick at);

    EventQueue &events_;
    const AddressMap &map_;
    unsigned channel_;
    DimmDevice &dimm_;
    CommandObserver *observer_ = nullptr;
    fault::FaultPlan *fault_plan_ = nullptr;
    ClockDomain clock_{kDramClockPeriod};

    /*
     * Re-entrancy: emit() and the data phases call into the device,
     * which may enqueue. No Request& is held across such a call; the
     * slot is looked up again after it.
     */
    SlotPool<Request> pool_;
    std::vector<Key> read_q_;  ///< age-ordered
    std::vector<Key> write_q_; ///< age-ordered
    /** Leading keys of each queue known not to be row hits. */
    std::size_t read_known_misses_ = 0;
    std::size_t write_known_misses_ = 0;
    BankStateSoA banks_;
    bool write_drain_ = false;
    bool coalesce_wakeups_ = true;
    bool pass_scheduled_ = false; ///< a pass event is pending at pass_at_
    Tick pass_at_ = 0;
    /** Generation stamp invalidating superseded pass events. */
    std::uint64_t pass_epoch_ = 0;
    /** Pass-scoped buffer for the mirrored DDR command stream. */
    trace::DdrBatch ddr_batch_;
    Tick bus_free_at_ = 0;
    bool last_was_write_ = false;
    bool cas_issued_ = false; ///< any CAS issued yet (turnaround gate)
    std::uint64_t bus_busy_cycles_ = 0;
    ControllerStats stats_;
    LogHistogram read_latency_;
};

} // namespace sd::mem

#endif // SD_MEM_MEMORY_CONTROLLER_H
