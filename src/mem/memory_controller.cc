#include "mem/memory_controller.h"

#include <algorithm>

#include "common/log.h"

namespace sd::mem {

MemoryController::MemoryController(EventQueue &events, const AddressMap &map,
                                   const DramTiming &timing,
                                   const ControllerConfig &config,
                                   unsigned channel, DimmDevice &dimm)
    : events_(events), map_(map), timing_(timing), config_(config),
      channel_(channel), dimm_(dimm),
      banks_(map.geometry().totalBanks())
{
}

std::uint32_t
MemoryController::admit(Addr line_addr, MemCallback cb)
{
    const std::uint32_t slot = pool_.alloc();
    Request &req = pool_[slot];
    req.addr = line_addr;
    req.coord = map_.decompose(line_addr);
    req.flat_bank = req.coord.flatBank(map_.geometry());
    req.cb = std::move(cb);
    req.enqueued = events_.now();
    req.retries = 0;
    req.needed_act = false;
    return slot;
}

void
MemoryController::enqueueRead(Addr line_addr, std::uint8_t *data,
                              MemCallback cb)
{
    SD_ASSERT(isLineAligned(line_addr), "unaligned read 0x%llx",
              static_cast<unsigned long long>(line_addr));
    const std::uint32_t slot = admit(line_addr, std::move(cb));
    pool_[slot].read_data = data;
    queueRead(slot);
}

void
MemoryController::enqueueWrite(Addr line_addr, const std::uint8_t *data,
                               MemCallback cb)
{
    SD_ASSERT(isLineAligned(line_addr), "unaligned write 0x%llx",
              static_cast<unsigned long long>(line_addr));
    const std::uint32_t slot = admit(line_addr, std::move(cb));
    Request &req = pool_[slot];
    std::copy_n(data, kCacheLineSize, req.write_data.begin());
    write_q_.push_back({req.coord.row, req.flat_bank, slot});
    kick();
}

void
MemoryController::queueRead(std::uint32_t slot)
{
    const Request &req = pool_[slot];
    read_q_.push_back({req.coord.row, req.flat_bank, slot});
    kick();
}

void
MemoryController::kick()
{
    // Scheduler decisions land on command-clock edges.
    requestPass(clock_.nextEdge(events_.now()));
}

void
MemoryController::requestPass(Tick when)
{
    ++stats_.wakeups_requested;
    if (!coalesce_wakeups_) {
        // Reference mode for the coalescing regression test: one full
        // scheduler pass per requested wakeup, as the seed behaved.
        events_.schedule(when, [this] { schedulePass(); });
        return;
    }
    if (pass_scheduled_ && pass_at_ <= when) {
        ++stats_.wakeups_coalesced;
        return;
    }
    pass_scheduled_ = true;
    pass_at_ = when;
    const std::uint64_t epoch = ++pass_epoch_;
    events_.schedule(when, [this, epoch] {
        if (epoch != pass_epoch_)
            return; // superseded by an earlier wakeup
        pass_scheduled_ = false;
        schedulePass();
    });
}

std::size_t
MemoryController::pickFrFcfs(const std::vector<Key> &queue) const
{
    // First ready (row hit), then oldest. The scan walks contiguous
    // 16-byte keys; each probe is one 8-byte load against the SoA
    // open-row column, keyed by the flat bank id precomputed at
    // enqueue.
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (banks_.rowHit(queue[i].flat_bank, queue[i].row))
            return i;
    }
    return 0;
}

DdrCommand
MemoryController::command(DdrCommandType type, const Request &req,
                          Tick at) const
{
    DdrCommand cmd;
    cmd.type = type;
    cmd.coord = req.coord;
    cmd.addr = req.addr;
    cmd.issue = at;
    // Four command slots per buffer-device cycle (Sec. IV-C).
    cmd.slot = static_cast<unsigned>(clock_.cyclesAt(at) % 4);
    return cmd;
}

void
MemoryController::emit(DdrCommandType type, std::uint32_t slot, Tick at)
{
    const DdrCommand cmd = command(type, pool_[slot], at);
    dimm_.onCommand(cmd);
    if (observer_)
        observer_->observe(cmd);

    auto &tr = trace::tracer();
    if (tr.ddrCapture()) {
        trace::Stage stage;
        switch (type) {
          case DdrCommandType::kReadCas:
            stage = trace::Stage::kDdrRead;
            break;
          case DdrCommandType::kWriteCas:
            stage = trace::Stage::kDdrWrite;
            break;
          case DdrCommandType::kActivate:
            stage = trace::Stage::kDdrActivate;
            break;
          default:
            stage = trace::Stage::kDdrPrecharge;
            break;
        }
        // Buffered; schedulePass() flushes before returning to the
        // event loop, preserving capture order (see trace::DdrBatch).
        ddr_batch_.add(stage, at, cmd.addr);
    }
}

void
MemoryController::reportStats(trace::StatsBlock &block) const
{
    block.scalar("reads", static_cast<double>(stats_.reads));
    block.scalar("writes", static_cast<double>(stats_.writes));
    block.scalar("row_hits", static_cast<double>(stats_.row_hits));
    block.scalar("row_misses", static_cast<double>(stats_.row_misses));
    block.scalar("row_conflicts",
                 static_cast<double>(stats_.row_conflicts));
    block.scalar("alert_retries",
                 static_cast<double>(stats_.alert_retries));
    block.scalar("spurious_alerts",
                 static_cast<double>(stats_.spurious_alerts));
    block.scalar("alert_backoffs",
                 static_cast<double>(stats_.alert_backoffs));
    block.scalar("degraded_reads",
                 static_cast<double>(stats_.degraded_reads));
    block.scalar("turnarounds", static_cast<double>(stats_.turnarounds));
    block.scalar("sched_passes",
                 static_cast<double>(stats_.sched_passes));
    block.scalar("wakeups_requested",
                 static_cast<double>(stats_.wakeups_requested));
    block.scalar("wakeups_coalesced",
                 static_cast<double>(stats_.wakeups_coalesced));
    block.scalar("bytes_moved", static_cast<double>(stats_.bytesMoved()));
    block.scalar("bus_busy_cycles",
                 static_cast<double>(bus_busy_cycles_));
    block.hist("read_latency_ticks", read_latency_);
}

bool
MemoryController::issueRequest(std::vector<Key> &queue, std::size_t index,
                               bool is_write)
{
    const Key key = queue[index];
    const std::uint32_t bank = key.flat_bank;
    const Tick now = events_.now();
    const Tick period = clock_.period();

    // Open the right row first if needed.
    if (!banks_.rowHit(bank, key.row)) {
        Tick when = std::max(now, banks_.readyAt(bank));
        if (banks_.open(bank)) {
            // PRE then ACT. Respect tRAS since the last ACT.
            when = std::max(when,
                            banks_.actAt(bank) + timing_.tRAS * period);
            emit(DdrCommandType::kPrecharge, key.slot, when);
            when += timing_.tRP * period;
            ++stats_.row_conflicts;
        } else {
            ++stats_.row_misses;
        }
        emit(DdrCommandType::kActivate, key.slot, when);
        pool_[key.slot].needed_act = true;
        banks_.activate(bank, key.row, /*act_at=*/when,
                        /*ready_at=*/when + timing_.tRCD * period);
        // Re-run the scheduler when the bank becomes ready.
        requestPass(banks_.readyAt(bank));
        return false; // CAS not issued this pass
    }

    // Earliest issue: bank readiness, data-bus availability, and the
    // read/write turnaround relative to the *previous* burst. All
    // inputs are stable until another CAS issues, so the computed
    // tick does not recede across scheduler passes.
    Tick earliest = std::max(banks_.readyAt(bank), bus_free_at_);
    const bool turnaround =
        cas_issued_ && last_was_write_ != is_write;
    if (turnaround)
        earliest = std::max(
            earliest,
            bus_free_at_ +
                (is_write ? timing_.tRTW : timing_.tWTR) * period);
    const Tick cas_at = clock_.nextEdge(std::max(earliest, now));

    if (cas_at > now) {
        // Not issuable yet; try again when the bus frees up.
        requestPass(cas_at);
        return false;
    }
    if (turnaround)
        ++stats_.turnarounds;

    // Issue the CAS now. Row hits are CASes that never needed an ACT.
    // Only the 16-byte key leaves the queue; the request stays put in
    // its slot until the data phase.
    Request &req = pool_[key.slot];
    if (!req.needed_act)
        ++stats_.row_hits;
    req.cas_at = cas_at;
    queue.erase(queue.begin() + static_cast<long>(index));

    const Cycles cas_latency = is_write ? timing_.tCWL : timing_.tCL;
    const Tick data_start = cas_at + cas_latency * period;
    const Tick data_end = data_start + timing_.tBL * period;

    banks_.setReadyAt(bank, cas_at + timing_.tCCD_L * period);
    bus_free_at_ = data_end;
    last_was_write_ = is_write;
    cas_issued_ = true;
    bus_busy_cycles_ += timing_.tBL;

    // The data-phase event captures {this, slot} only, so it always
    // fits UniqueFunction's inline buffer.
    const std::uint32_t slot = key.slot;
    if (is_write) {
        emit(DdrCommandType::kWriteCas, slot, cas_at);
        ++stats_.writes;
        events_.schedule(data_end, [this, slot] { writeDataPhase(slot); });
    } else {
        // stats_.reads counts completions, in readDataPhase().
        emit(DdrCommandType::kReadCas, slot, cas_at);
        events_.schedule(data_end, [this, slot] { readDataPhase(slot); });
    }
    return true;
}

void
MemoryController::writeDataPhase(std::uint32_t slot)
{
    // The burst reaches the device at the end of the data transfer.
    // Copy out what the device and callback need and free the slot
    // first, so anything they enqueue may reuse it.
    Request &req = pool_[slot];
    const DdrCommand cmd = command(DdrCommandType::kWriteCas, req, req.cas_at);
    const std::array<std::uint8_t, kCacheLineSize> burst = req.write_data;
    MemCallback cb = std::move(req.cb);
    pool_.free(slot);
    dimm_.onWrite(cmd, burst.data());
    if (cb)
        cb(events_.now(), MemStatus::kOk);
}

void
MemoryController::readDataPhase(std::uint32_t slot)
{
    const DdrCommand cmd =
        command(DdrCommandType::kReadCas, pool_[slot], pool_[slot].cas_at);
    const ReadResponse resp = dimm_.onRead(cmd, pool_[slot].read_data);
    if (resp == ReadResponse::kAlertN) {
        // S13: device asserted ALERT_N — requeue the rdCAS.
        retryAlert(slot, /*spurious=*/false);
        return;
    }
    if (fault_plan_ && fault_plan_->armed(fault::Site::kAlertStorm)
        && fault_plan_->shouldInject(fault::Site::kAlertStorm,
                                     {static_cast<int>(channel_), -1})) {
        // Injected storm: treat the good read as if the device had
        // asserted ALERT_N (data is discarded and re-read).
        retryAlert(slot, /*spurious=*/true);
        return;
    }
    ++stats_.reads;
    read_latency_.sample(events_.now() - pool_[slot].enqueued);
    complete(slot, MemStatus::kOk);
}

void
MemoryController::complete(std::uint32_t slot, MemStatus status)
{
    MemCallback cb = std::move(pool_[slot].cb);
    pool_.free(slot);
    if (cb)
        cb(events_.now(), status);
}

void
MemoryController::retryAlert(std::uint32_t slot, bool spurious)
{
    Request &req = pool_[slot];
    ++stats_.alert_retries;
    if (spurious) {
        ++stats_.spurious_alerts;
        trace::tracer().faultEvent(req.addr / kPageSize, events_.now(),
                                   req.addr);
    }

    const unsigned attempt = req.retries + 1;
    if (attempt >= config_.alert_max_retries) {
        // Retry budget exhausted: hand the (possibly stale) line back
        // as degraded instead of wedging the channel. The host stack
        // decides how to recover (Sec. IV-D's fallback path).
        ++stats_.degraded_reads;
        trace::tracer().faultEvent(req.addr / kPageSize, events_.now(),
                                   req.addr);
        ++stats_.reads;
        read_latency_.sample(events_.now() - req.enqueued);
        complete(slot, MemStatus::kDegraded);
        return;
    }

    // The same slot goes back on the read queue; its enqueue tick is
    // kept, so the latency sample spans all retries.
    req.retries = attempt;
    req.needed_act = false;
    if (attempt <= config_.alert_fast_retries) {
        queueRead(slot);
        return;
    }

    // Exponential backoff past the fast window, capped so a long storm
    // stays polling rather than effectively parked.
    ++stats_.alert_backoffs;
    const unsigned excess = attempt - config_.alert_fast_retries - 1;
    const unsigned shift = std::min(excess, 20u);
    const Cycles backoff = std::min(config_.alert_backoff_base << shift,
                                    config_.alert_backoff_cap);
    events_.schedule(events_.now() + backoff * clock_.period(),
                     [this, slot] { queueRead(slot); });
}

void
MemoryController::updateWriteDrain()
{
    if (write_q_.size() >= config_.write_high_watermark) {
        // kWriteDrainDelay: suppress the drain transition this pass so
        // the write queue keeps backing up (exercises queue-pressure
        // paths above the high watermark).
        const bool delayed =
            !write_drain_ && fault_plan_ &&
            fault_plan_->armed(fault::Site::kWriteDrainDelay) &&
            fault_plan_->shouldInject(fault::Site::kWriteDrainDelay,
                                      {static_cast<int>(channel_), -1});
        if (!delayed)
            write_drain_ = true;
    }
    if (write_q_.size() <= config_.write_low_watermark)
        write_drain_ = false;
}

void
MemoryController::schedulePass()
{
    ++stats_.sched_passes;
    // Drain-mode hysteresis (write batching).
    updateWriteDrain();

    for (;;) {
        const bool service_writes =
            write_drain_ || (read_q_.empty() && !write_q_.empty());
        std::vector<Key> &queue = service_writes ? write_q_ : read_q_;
        if (queue.empty())
            break;
        const std::size_t index = pickFrFcfs(queue);
        if (!issueRequest(queue, index, service_writes))
            break; // waiting on a bank/bus event already requested
        // Keep issuing while commands fit at the current tick.
        updateWriteDrain();
    }
    // One tracer-lock acquisition for the whole pass's DDR mirror.
    ddr_batch_.flush();
}

} // namespace sd::mem
