#include "compcpy/queue.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/log.h"
#include "smartdimm/config.h"
#include "smartdimm/mmio_layout.h"

namespace sd::compcpy {

/**
 * Bound on idle recovery rounds per stuck descriptor. Each round is a
 * kQueueStatus read plus a full event-queue drain; a device that still
 * cannot account for the descriptor afterwards gets a synthesised
 * kBailout record — the reaping mirror of kMaxRecycleAttempts.
 */
constexpr unsigned kMaxRecoveryRounds = 3;

/**
 * Bound on run() submit retries against an injected kQueueFull. Each
 * retry pumps the event queue (draining real occupancy); past the
 * bound run() force-submits — a lying "queue full" signal must not
 * wedge a synchronous caller, mirroring the recycle bailout.
 */
constexpr unsigned kMaxSubmitRetries = 8;

const char *
completionStatusName(CompletionStatus status)
{
    switch (status) {
      case CompletionStatus::kSuccess:
        return "success";
      case CompletionStatus::kDegraded:
        return "degraded";
      case CompletionStatus::kRejected:
        return "rejected";
      case CompletionStatus::kBailout:
        return "bailout";
    }
    return "?";
}

WorkQueue::WorkQueue(CompCpyEngine &engine, const WorkQueueConfig &config)
    : engine_(engine), config_(config),
      occ_hist_(0.0, static_cast<double>(config.depth) + 1.0,
                config.depth + 1)
{
    SD_ASSERT(config_.depth > 0 && config_.max_inflight > 0,
              "work queue needs a nonzero depth and inflight window");
    SD_ASSERT(config_.id < smartdimm::kMaxDeviceQueues,
              "queue id outside the device's kQueueStatus window");
}

WorkQueue::~WorkQueue() = default;

std::size_t
WorkQueue::occupancy() const
{
    return order_.size();
}

std::optional<std::uint64_t>
WorkQueue::submit(const Descriptor &desc, std::uint16_t submitter,
                  CompletionCallback on_complete)
{
    owner_.check();
    SD_ASSERT(!desc.ops.empty(), "empty descriptor");

    // Dedicated-mode arbitration: the queue binds to its first
    // accepted submitter; anyone else is turned away at the door.
    if (config_.mode == QueueMode::kDedicated && owner_submitter_ &&
        *owner_submitter_ != submitter) {
        ++stats_.rejected_submitter;
        return std::nullopt;
    }

    // Backpressure: a genuinely full ring, or an injected kQueueFull
    // (a stuck/lying not-ready signal). The fault plan is consulted
    // only when the queue has room, so every injection maps to
    // exactly one rejected submit — the soak conservation invariant.
    const bool genuinely_full = occupancy() >= config_.depth;
    const bool injected_full =
        !genuinely_full && fault::fires(engine_.faultPlan(),
                                        fault::Site::kQueueFull,
                                        engine_.faultScope());
    if (genuinely_full || injected_full) {
        ++stats_.rejected_full;
        if (injected_full)
            trace::tracer().faultEvent(desc.ops[0].dbuf / kPageSize,
                                       engine_.memory().events().now(),
                                       desc.ops[0].dbuf);
        return std::nullopt;
    }

    return accept(desc, submitter, std::move(on_complete));
}

std::uint64_t
WorkQueue::submitForce(const Descriptor &desc, std::uint16_t submitter,
                       CompletionCallback on_complete)
{
    owner_.check();
    SD_ASSERT(!desc.ops.empty(), "empty descriptor");
    return accept(desc, submitter, std::move(on_complete));
}

std::uint64_t
WorkQueue::accept(const Descriptor &desc, std::uint16_t submitter,
                  CompletionCallback on_complete)
{
    if (config_.mode == QueueMode::kDedicated && !owner_submitter_)
        owner_submitter_ = submitter;

    const Tick now = engine_.memory().events().now();
    auto p = std::make_shared<Pending>();
    p->id = next_id_++;
    p->desc = desc;
    p->submitter = submitter;
    p->on_complete = std::move(on_complete);
    p->submitted = now;

    // Open one span per op at submit time, so the span covers the full
    // submit→complete window and device-side events attribute through
    // the page bindings from the moment the descriptor is accepted.
    auto &tr = trace::tracer();
    p->spans.reserve(p->desc.ops.size());
    for (const auto &op : p->desc.ops) {
        std::uint32_t span = 0;
        if (tr.enabled()) {
            // Per-device span naming: an engine placed in a topology
            // tags its spans ("tls.ch1.d0") so multi-DIMM traces never
            // aggregate devices under one name. Untagged engines keep
            // the legacy names (1x1 goldens are byte-identical).
            span = tr.beginSpan(engine_.spanName(op.ulp), op.sbuf,
                                op.dbuf, op.size, now);
            const std::size_t src_pages = divCeil(op.size, kPageSize);
            const std::size_t dst_pages = CompCpyEngine::destPages(op);
            for (std::size_t pg = 0; pg < src_pages; ++pg)
                tr.bindPage(op.sbuf / kPageSize + pg, span);
            for (std::size_t pg = 0; pg < dst_pages; ++pg)
                tr.bindPage(op.dbuf / kPageSize + pg, span);
        }
        tr.event(span, trace::Stage::kSubmit, now, op.dbuf);
        p->spans.push_back(span);
    }

    ++stats_.submitted;
    stats_.submitted_ops += p->desc.ops.size();
    if (p->desc.ops.size() > 1)
        ++stats_.batches;
    occupancy_.add();
    occ_hist_.sample(static_cast<double>(occupancy_.value()));

    order_.push_back(p);
    dispatch_.push_back(p);
    if (config_.signal == CompletionSignal::kWithheldResponse)
        ++stats_.withheld_reads; // one held read per descriptor
    ringDoorbell(p);
    return p->id;
}

void
WorkQueue::ringDoorbell(const std::shared_ptr<Pending> &p)
{
    // The device must see the submission before the host dispatches:
    // its per-queue submitted/completed counts (kQueueStatus) are the
    // ground truth lost-completion recovery diffs against.
    smartdimm::QueueDoorbell db;
    db.queue = config_.id;
    db.submitter = p->submitter;
    db.ops = static_cast<std::uint32_t>(p->desc.ops.size());
    db.seq = p->id;
    std::array<std::uint8_t, kCacheLineSize> burst;
    smartdimm::packBurst(db, burst.data());
    ++stats_.doorbells;
    // The controller copies the burst at enqueue, as on the wire.
    engine_.memory().mmioWrite(
        engine_.driver().mmio(smartdimm::MmioReg::kQueueDoorbell),
        burst.data(), [this, p](Tick) {
            p->doorbell_landed = true;
            tryDispatch();
        });
}

void
WorkQueue::tryDispatch()
{
    // Strict FIFO per queue: ops start in descriptor submission order
    // (and in op order within a batch), gated by the inflight window.
    while (inflight_ops_ < config_.max_inflight && !dispatch_.empty()) {
        auto p = dispatch_.front();
        if (p->recorded) { // force-bailed while queued
            dispatch_.pop_front();
            continue;
        }
        if (!p->doorbell_landed)
            return;
        if (p->ops_started == 0)
            p->dispatched = engine_.memory().events().now();
        const std::size_t i = p->ops_started++;
        if (p->ops_started == p->desc.ops.size())
            dispatch_.pop_front();
        ++inflight_ops_;
        engine_.startOp(p->desc.ops[i], p->spans[i],
                        [this, p](const OpOutcome &outcome) {
                            opDone(p, outcome);
                        });
    }
}

void
WorkQueue::opDone(const std::shared_ptr<Pending> &p,
                  const OpOutcome &outcome)
{
    --inflight_ops_;
    p->degraded |= outcome.degraded;
    p->rejected |= outcome.rejected;
    p->bailout |= outcome.bailout;
    if (++p->ops_done == p->desc.ops.size())
        descriptorExecuted(p);
    tryDispatch();
}

CompletionStatus
WorkQueue::statusOf(const Pending &p) const
{
    // Severity order: a rejected registration left plain-DRAM bytes in
    // the destination, degraded reads returned raw data, a bailout
    // alone means a bounded loop gave up but the data is intact.
    if (p.rejected)
        return CompletionStatus::kRejected;
    if (p.degraded)
        return CompletionStatus::kDegraded;
    if (p.bailout)
        return CompletionStatus::kBailout;
    return CompletionStatus::kSuccess;
}

void
WorkQueue::descriptorExecuted(const std::shared_ptr<Pending> &p)
{
    p->executed = true;
    if (p->recorded)
        return; // a bounded-recovery bailout already closed it

    // Completion protocol: ack the device first (always lands), then
    // write the host-visible record — the lossy step kLostCompletion
    // models dropping.
    smartdimm::QueueCompletion qc;
    qc.queue = config_.id;
    qc.status = static_cast<std::uint16_t>(statusOf(*p));
    qc.ops = static_cast<std::uint32_t>(p->desc.ops.size());
    qc.seq = p->id;
    std::array<std::uint8_t, kCacheLineSize> burst;
    smartdimm::packBurst(qc, burst.data());
    engine_.memory().mmioWrite(
        engine_.driver().mmio(smartdimm::MmioReg::kQueueComplete),
        burst.data(), [this, p](Tick) {
            if (p->recorded)
                return;
            if (config_.signal == CompletionSignal::kWithheldResponse) {
                // The CXL controller releases the read response it has
                // been holding since submit: delivery IS the record,
                // so there is no lossy host write and no polling. The
                // failure mode is the response itself timing out.
                if (fault::fires(engine_.faultPlan(),
                                 fault::Site::kCxlTimeout,
                                 engine_.faultScope())) {
                    ++stats_.withheld_timeouts;
                    // The offload DID run, but the host cannot trust a
                    // completion it never saw — the synthesised record
                    // comes back degraded and the dispatcher falls
                    // back to the CPU/local path for the flow.
                    p->degraded = true;
                    trace::tracer().faultEvent(
                        p->desc.ops[0].dbuf / kPageSize,
                        engine_.memory().events().now(),
                        p->desc.ops[0].dbuf);
                    return; // poll-timeout recovery synthesises it
                }
                const Tick waited =
                    engine_.memory().events().now() - p->submitted;
                const std::uint64_t saved = 1 + waited / kPollInterval;
                stats_.polls_saved += saved;
                stats_.poll_bytes_saved += saved * kCacheLineSize;
                ++stats_.withheld_completions;
                writeRecord(p, /*recovered=*/false);
                return;
            }
            if (fault::fires(engine_.faultPlan(),
                             fault::Site::kLostCompletion,
                             engine_.faultScope())) {
                ++stats_.lost_records;
                trace::tracer().faultEvent(p->desc.ops[0].dbuf / kPageSize,
                                           engine_.memory().events().now(),
                                           p->desc.ops[0].dbuf);
                return; // poll-timeout recovery synthesises it
            }
            writeRecord(p, /*recovered=*/false);
        });
}

void
WorkQueue::writeRecord(const std::shared_ptr<Pending> &p, bool recovered)
{
    SD_ASSERT(!p->recorded, "descriptor completion-recorded twice");
    p->recorded = true;
    const Tick now = engine_.memory().events().now();

    CompletionRecord rec;
    rec.id = p->id;
    rec.queue = config_.id;
    rec.submitter = p->submitter;
    rec.status = statusOf(*p);
    rec.recovered = recovered;
    rec.ops = static_cast<std::uint32_t>(p->desc.ops.size());
    rec.submitted = p->submitted;
    rec.dispatched = p->dispatched;
    rec.completed = now;

    ++stats_.completions;
    if (recovered)
        ++stats_.recovered_records;
    switch (rec.status) {
      case CompletionStatus::kDegraded:
        ++stats_.degraded;
        break;
      case CompletionStatus::kRejected:
        ++stats_.rejected;
        break;
      case CompletionStatus::kBailout:
        ++stats_.bailouts;
        break;
      case CompletionStatus::kSuccess:
        break;
    }
    latency_.sample(now - p->submitted);
    occupancy_.sub();
    for (auto it = order_.begin(); it != order_.end(); ++it) {
        if ((*it)->id == p->id) {
            order_.erase(it);
            break;
        }
    }

    // These spans opened at submit time (accept()); close them here.
    auto &tr = trace::tracer();
    for (std::size_t i = 0; i < p->spans.size(); ++i) {
        tr.event(p->spans[i], trace::Stage::kComplete, now,
                 p->desc.ops[i].dbuf);
        tr.endSpan(p->spans[i], now);
    }

    if (p->on_complete)
        p->on_complete(rec); // an always-polling client: reaped now
    else
        ready_.push_back(rec);
}

void
WorkQueue::recoverLost()
{
    if (recovery_inflight_)
        return;
    recovery_inflight_ = true;
    ++stats_.recovery_polls;
    auto reg =
        std::make_shared<std::array<std::uint8_t, kCacheLineSize>>();
    engine_.memory().mmioRead(
        engine_.driver().mmio(smartdimm::MmioReg::kQueueStatus),
        reg->data(), [this, reg](Tick) {
            recovery_inflight_ = false;
            std::uint64_t words[8];
            std::memcpy(words, reg->data(), sizeof(words));
            if (config_.id >= words[0])
                return;
            const auto dev_completed = static_cast<std::uint32_t>(
                words[1 + config_.id] & 0xFFFF'FFFFu);
            // Descriptors the device acked but the host never
            // recorded are exactly the dropped records; the oldest
            // executed-but-unrecorded entries are those.
            std::uint64_t deficit =
                dev_completed > stats_.completions
                    ? dev_completed - stats_.completions
                    : 0;
            std::vector<std::shared_ptr<Pending>> victims;
            for (const auto &p : order_) {
                if (victims.size() >= deficit)
                    break;
                if (p->executed && !p->recorded)
                    victims.push_back(p);
            }
            for (const auto &p : victims)
                writeRecord(p, /*recovered=*/true);
        });
}

void
WorkQueue::forceBailout(const std::shared_ptr<Pending> &p)
{
    p->bailout = true;
    writeRecord(p, /*recovered=*/true);
}

std::vector<CompletionRecord>
WorkQueue::poll()
{
    owner_.check();
    // Poll-timeout check: an executed descriptor whose record has not
    // landed within the timeout means the record dropped — start a
    // recovery poll (the reaped records below are unaffected).
    const Tick now = engine_.memory().events().now();
    for (const auto &p : order_) {
        if (p->executed && !p->recorded &&
            now - p->submitted >= kPollTimeout) {
            recoverLost();
            break;
        }
    }
    std::vector<CompletionRecord> out;
    out.swap(ready_);
    stats_.reaped += out.size();
    return out;
}

CompletionRecord
WorkQueue::wait(std::uint64_t id)
{
    owner_.check();
    unsigned stale = 0;
    for (;;) {
        for (auto it = ready_.begin(); it != ready_.end(); ++it) {
            if (it->id != id)
                continue;
            CompletionRecord rec = *it;
            ready_.erase(it);
            ++stats_.reaped;
            return rec;
        }
        std::shared_ptr<Pending> target;
        for (const auto &p : order_) {
            if (p->id == id) {
                target = p;
                break;
            }
        }
        SD_ASSERT(target != nullptr,
                  "wait() on an unknown or callback-consumed descriptor");
        const std::uint64_t before = stats_.completions;
        engine_.memory().events().run();
        if (stats_.completions != before)
            continue; // progress: re-check the record array
        // Idle with the record missing: the completion dropped.
        if (stale++ >= kMaxRecoveryRounds) {
            forceBailout(target);
            continue;
        }
        recoverLost();
        engine_.memory().events().run();
    }
}

void
WorkQueue::drain()
{
    owner_.check();
    unsigned stale = 0;
    while (!order_.empty()) {
        const std::uint64_t before = stats_.completions;
        engine_.memory().events().run();
        if (order_.empty())
            break;
        if (stats_.completions != before) {
            stale = 0;
            continue;
        }
        if (stale++ >= kMaxRecoveryRounds) {
            forceBailout(order_.front());
            continue;
        }
        recoverLost();
        engine_.memory().events().run();
    }
}

CompletionRecord
WorkQueue::run(const CompCpyParams &params)
{
    const Descriptor desc = Descriptor::single(params);
    std::optional<std::uint64_t> id;
    for (unsigned attempt = 0;
         attempt < kMaxSubmitRetries && !id; ++attempt) {
        id = submit(desc);
        if (!id)
            engine_.memory().events().run();
    }
    if (!id)
        id = submitForce(desc);
    return wait(*id);
}

void
WorkQueue::reportStats(trace::StatsBlock &block) const
{
    block.scalar("submitted", static_cast<double>(stats_.submitted));
    block.scalar("submitted_ops",
                 static_cast<double>(stats_.submitted_ops));
    block.scalar("batches", static_cast<double>(stats_.batches));
    block.scalar("rejected_full",
                 static_cast<double>(stats_.rejected_full));
    block.scalar("rejected_submitter",
                 static_cast<double>(stats_.rejected_submitter));
    block.scalar("completions", static_cast<double>(stats_.completions));
    block.scalar("degraded", static_cast<double>(stats_.degraded));
    block.scalar("rejected", static_cast<double>(stats_.rejected));
    block.scalar("bailouts", static_cast<double>(stats_.bailouts));
    block.scalar("reaped", static_cast<double>(stats_.reaped));
    block.scalar("lost_records",
                 static_cast<double>(stats_.lost_records));
    block.scalar("recovered_records",
                 static_cast<double>(stats_.recovered_records));
    block.scalar("recovery_polls",
                 static_cast<double>(stats_.recovery_polls));
    block.scalar("doorbells", static_cast<double>(stats_.doorbells));
    block.scalar("withheld_reads",
                 static_cast<double>(stats_.withheld_reads));
    block.scalar("withheld_completions",
                 static_cast<double>(stats_.withheld_completions));
    block.scalar("withheld_timeouts",
                 static_cast<double>(stats_.withheld_timeouts));
    block.scalar("polls_saved",
                 static_cast<double>(stats_.polls_saved));
    block.scalar("poll_bytes_saved",
                 static_cast<double>(stats_.poll_bytes_saved));
    block.scalar("occupancy", static_cast<double>(occupancy_.value()));
    block.scalar("peak_occupancy",
                 static_cast<double>(occupancy_.peak()));
    block.hist("occupancy_at_submit", occ_hist_);
    block.hist("completion_latency_ticks", latency_);
}

} // namespace sd::compcpy
