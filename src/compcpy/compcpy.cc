#include "compcpy/compcpy.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "common/log.h"
#include "compcpy/queue.h"
#include "crypto/tls_record.h"
#include "smartdimm/deflate_dsa.h"

namespace sd::compcpy {

/**
 * Bound on consecutive Force-Recycle rounds per call. A device whose
 * freePages register keeps reading zero while nothing is pending (a
 * stuck or lying register) would otherwise spin this loop forever;
 * past the bound the engine proceeds optimistically — a genuinely
 * full scratchpad then rejects the registration gracefully.
 */
constexpr unsigned kMaxRecycleAttempts = 8;

/**
 * Bound on sync-facade submit retries against an injected kQueueFull.
 * Each retry pumps the event queue (draining real occupancy); past
 * the bound the facade force-submits — a lying "queue full" signal
 * must not wedge a synchronous caller, mirroring the recycle bailout.
 */
constexpr unsigned kMaxSubmitRetries = 8;

/** Lines in flight per round of the unordered copy loop. */
constexpr std::size_t kCopyWindow = 8;

/** Continuation state of one in-flight CompCpy (a pool slot). */
struct CompCpyEngine::Flow
{
    CompCpyParams params;
    OpCallback on_done;
    std::size_t src_pages = 0;
    std::size_t dst_pages = 0;
    std::size_t cursor = 0;  ///< line/page progress in each stage
    std::size_t pending = 0; ///< join counter of the current fan-out
    /** Copy-window staging; line 0 also receives MMIO register reads. */
    std::array<std::array<std::uint8_t, kCacheLineSize>, kCopyWindow>
        staging;
    std::uint32_t span = 0;      ///< trace span id (0 = untraced)
    Tick begin = 0;              ///< start() tick for call latency
    std::uint64_t degraded_base = 0; ///< degradedReads() at start
    unsigned recycle_attempts = 0;   ///< Force-Recycle rounds so far
    bool bailed = false;             ///< recycle loop hit its bound
};

CompCpyEngine::CompCpyEngine(cache::MemorySystem &memory, Driver &driver,
                             SharedState &shared)
    : memory_(memory), driver_(driver), shared_(shared)
{
}

CompCpyEngine::~CompCpyEngine() = default;

bool
CompCpyEngine::injectFault(fault::Site site)
{
    return fault_plan_ && fault_plan_->armed(site) &&
           fault_plan_->shouldInject(site, fault_scope_);
}

std::size_t
CompCpyEngine::destPages(const CompCpyParams &params)
{
    if (params.ulp == smartdimm::UlpKind::kTlsEncrypt)
        return divCeil(params.size + crypto::kTlsTagSize, kPageSize);
    return divCeil(params.size, kPageSize);
}

WorkQueue &
CompCpyEngine::syncQueue()
{
    if (!sync_queue_) {
        WorkQueueConfig cfg;
        cfg.id = 0;
        cfg.mode = QueueMode::kShared; // the facade serves any caller
        cfg.depth = 64;
        cfg.max_inflight = 64;
        sync_queue_ = std::make_unique<WorkQueue>(*this, cfg);
    }
    return *sync_queue_;
}

void
CompCpyEngine::start(const CompCpyParams &params,
                     std::function<void()> on_done)
{
    // Submit-then-poll facade: a single-op descriptor whose record is
    // consumed by the callback the moment it is written. Rejections
    // (injected kQueueFull, or a genuinely full facade ring) retry
    // after pumping the event queue, then force-submit — the bounded
    // escape hatch that keeps the old start() contract: on_done always
    // eventually fires.
    auto consume = [cb = std::move(on_done)](const CompletionRecord &) {
        cb();
    };
    const Descriptor desc = Descriptor::single(params);
    for (unsigned attempt = 0; attempt < kMaxSubmitRetries; ++attempt) {
        if (syncQueue().submit(desc, 0, consume))
            return;
        memory_.events().run();
    }
    syncQueue().submitForce(desc, 0, consume);
}

void
CompCpyEngine::run(const CompCpyParams &params)
{
    const Descriptor desc = Descriptor::single(params);
    std::optional<std::uint64_t> id;
    for (unsigned attempt = 0;
         attempt < kMaxSubmitRetries && !id; ++attempt) {
        id = syncQueue().submit(desc);
        if (!id)
            memory_.events().run();
    }
    if (!id)
        id = syncQueue().submitForce(desc);
    syncQueue().wait(*id);
}

void
CompCpyEngine::startOp(const CompCpyParams &params, std::uint32_t span,
                       OpCallback on_done)
{
    // Alg. 2 lines 3-6: alignment checks.
    SD_ASSERT(isPageAligned(params.dbuf) && isPageAligned(params.sbuf),
              "CompCpy buffers must be 4 KB aligned");
    SD_ASSERT(params.size > 0, "empty CompCpy");
    if (params.ulp == smartdimm::UlpKind::kDeflate)
        SD_ASSERT(params.size <= smartdimm::kDeflateMaxPayload,
                  "deflate offloads are page-granular");

    const std::uint32_t id = flows_.alloc();
    Flow &flow = flows_[id];
    flow.params = params;
    flow.on_done = std::move(on_done);
    flow.src_pages = divCeil(params.size, kPageSize);
    flow.dst_pages = destPages(params);
    flow.cursor = 0;
    flow.pending = 0;
    flow.span = span; // opened by the owning work queue at submit
    flow.begin = memory_.events().now();
    flow.degraded_base = memory_.degradedReads();
    flow.recycle_attempts = 0;
    flow.bailed = false;
    ++stats_.calls;
    stats_.pages_offloaded += flow.dst_pages;

    checkFreePages(id);
}

void
CompCpyEngine::checkFreePages(std::uint32_t id)
{
    // Alg. 2 lines 7-17: reserve scratchpad pages under the lock,
    // refreshing the shadow counter lazily from the MMIO register.
    ++shared_.lock_acquisitions;
    const auto needed = static_cast<std::int64_t>(flows_[id].dst_pages);
    if (shared_.free_pages > needed) {
        shared_.free_pages -= needed;
        flushSource(id);
        return;
    }

    ++stats_.freepages_refreshes;
    memory_.mmioRead(driver_.mmio(smartdimm::MmioReg::kFreePages),
                     flows_[id].staging[0].data(),
                     [this, id, needed](Tick) {
        Flow &flow = flows_[id];
        std::uint64_t hw_free = 0;
        std::memcpy(&hw_free, flow.staging[0].data(), sizeof(hw_free));
        shared_.free_pages = static_cast<std::int64_t>(hw_free);
        if (shared_.free_pages > needed) {
            shared_.free_pages -= needed;
            flushSource(id);
            return;
        }
        // Unlikely path (Alg. 2 line 11): Force-Recycle.
        if (++flow.recycle_attempts > kMaxRecycleAttempts) {
            ++stats_.recycle_bailouts;
            flow.bailed = true;
            trace::tracer().event(flow.span, trace::Stage::kFault,
                                  memory_.events().now(), flow.params.dbuf);
            flushSource(id);
            return;
        }
        forceRecycle(id, static_cast<std::size_t>(needed));
    });
}

void
CompCpyEngine::forceRecycle(std::uint32_t id, std::size_t required_pages)
{
    // Algorithm 1: read the pending list, flush those pages so their
    // cached destination lines write back and drain the scratchpad.
    ++stats_.force_recycles;
    trace::tracer().event(flows_[id].span, trace::Stage::kForceRecycle,
                          memory_.events().now(), flows_[id].params.dbuf);
    memory_.mmioRead(driver_.mmio(smartdimm::MmioReg::kPendingList),
                     flows_[id].staging[0].data(),
                     [this, id, required_pages](Tick) {
        std::uint64_t words[8];
        std::memcpy(words, flows_[id].staging[0].data(), sizeof(words));
        const std::size_t count =
            std::min<std::uint64_t>(words[0], 7);
        std::size_t to_free =
            std::min<std::size_t>(count, required_pages + 1);
        // A degraded register read can hand back stale or zeroed
        // bytes; only page-aligned non-zero entries are usable.
        while (to_free > 0 &&
               (words[to_free] == 0 || !isPageAligned(words[to_free])))
            --to_free;

        if (to_free == 0) {
            // Nothing pending: the scratchpad will free as in-flight
            // drains land; retry the freePages check shortly.
            memory_.events().scheduleIn(100'000, [this, id] {
                shared_.free_pages = -1;
                checkFreePages(id);
            });
            return;
        }

        flows_[id].pending = to_free * kLinesPerPage;
        for (std::size_t i = 0; i < to_free; ++i) {
            const Addr page = words[1 + i];
            for (std::size_t l = 0; l < kLinesPerPage; ++l) {
                const Addr line = page + l * kCacheLineSize;
                if (memory_.llc().contains(line)) {
                    // Cached copy exists: a flush generates the wrCAS
                    // that drains the scratchpad line.
                    memory_.flushLine(line, [this, id](Tick) {
                        recycleLineDone(id);
                    });
                    continue;
                }
                // Uncached: read the line back (served from the
                // scratchpad when staged) and rewrite the identical
                // bytes — the wrCAS drains staged lines and is a
                // harmless idempotent store otherwise.
                auto staging = std::make_shared<
                    std::array<std::uint8_t, kCacheLineSize>>();
                memory_.mmioRead(line, staging->data(),
                                 [this, id, line, staging](Tick) {
                    memory_.mmioWrite(line, staging->data(),
                                      [this, id](Tick) {
                        recycleLineDone(id);
                    });
                });
            }
        }
    });
}

void
CompCpyEngine::recycleLineDone(std::uint32_t id)
{
    if (--flows_[id].pending == 0) {
        shared_.free_pages = -1;
        checkFreePages(id);
    }
}

void
CompCpyEngine::flushSource(std::uint32_t id)
{
    // Alg. 2 line 19: flush sbuf so rdCAS commands reach the DIMM.
    Flow &flow = flows_[id];
    const std::size_t lines = divCeil(flow.params.size, kCacheLineSize);
    const Addr sbuf = flow.params.sbuf;
    flow.pending = lines;
    for (std::size_t l = 0; l < lines; ++l) {
        const Addr line = sbuf + l * kCacheLineSize;
        memory_.flushLine(line, [this, id, line](Tick at) {
            trace::tracer().event(flows_[id].span, trace::Stage::kFlush, at,
                                  line);
            if (--flows_[id].pending == 0)
                registerPages(id);
        });
    }
}

void
CompCpyEngine::registerPages(std::uint32_t id)
{
    // Alg. 2 lines 21-23: one MMIO write per page pair (S17).
    Flow &flow = flows_[id];
    const CompCpyParams &p = flow.params;
    if (flow.cursor >= flow.dst_pages) {
        flow.cursor = 0;
        copyLines(id);
        return;
    }

    const std::size_t page = flow.cursor++;
    std::array<std::uint8_t, kCacheLineSize> burst{};

    if (p.ulp == smartdimm::UlpKind::kTlsEncrypt) {
        smartdimm::TlsPageRegistration reg;
        reg.page_index = static_cast<std::uint16_t>(page);
        reg.message_len = static_cast<std::uint32_t>(p.size);
        reg.message_id = p.message_id;
        const bool tag_only = page >= flow.src_pages;
        reg.sbuf_page = tag_only
                            ? (p.dbuf / kPageSize + page)
                            : (p.sbuf / kPageSize + page);
        reg.dbuf_page = p.dbuf / kPageSize + page;
        std::memcpy(reg.key, p.key, sizeof(reg.key));
        std::memcpy(reg.iv, p.iv.data(), sizeof(reg.iv));
        reg.pack(burst.data());
    } else {
        smartdimm::DeflatePageRegistration reg;
        reg.payload_bytes = static_cast<std::uint16_t>(p.size);
        reg.sbuf_page = p.sbuf / kPageSize;
        reg.dbuf_page = p.dbuf / kPageSize;
        reg.pack(burst.data());
    }

    // The controller copies the burst at enqueue, as on the wire.
    const Addr reg_addr = driver_.mmio(smartdimm::MmioReg::kRegister);
    memory_.mmioWrite(reg_addr, burst.data(), [this, id, reg_addr](Tick at) {
        trace::tracer().event(flows_[id].span, trace::Stage::kRegister, at,
                              reg_addr);
        registerPages(id);
    });
}

void
CompCpyEngine::copyLines(std::uint32_t id)
{
    // Alg. 2 lines 24-30: the memcpy. Ordered mode fences between
    // 64-byte copies (one line strictly after another); unordered mode
    // still serialises read->write per line but lets the memory system
    // pipeline across lines via a small window.
    Flow &flow = flows_[id];
    const CompCpyParams &p = flow.params;
    const std::size_t lines = divCeil(p.size, kCacheLineSize);

    if (flow.cursor >= lines) {
        flow.cursor = 0;
        zeroTrailer(id);
        return;
    }

    // kOrderedFence: an injected violation issues one window of two
    // lines in *reverse*, so the second line's rdCAS reaches the
    // streaming DSA first — exactly the bug the fences prevent. The
    // DSA poisons the job; the page never completes; the controller
    // eventually degrades its reads and the call is flagged.
    bool fence_violation = false;
    std::size_t window;
    if (p.ordered) {
        fence_violation = lines - flow.cursor >= 2 &&
                          injectFault(fault::Site::kOrderedFence);
        window = fence_violation ? 2 : 1;
        if (fence_violation) {
            ++stats_.fence_violations;
            trace::tracer().event(flow.span, trace::Stage::kFault,
                                  memory_.events().now(),
                                  p.sbuf + flow.cursor * kCacheLineSize);
        }
    } else {
        window = std::min<std::size_t>(kCopyWindow, lines - flow.cursor);
    }

    const std::size_t first = flow.cursor;
    const Addr sbuf = p.sbuf;
    const Addr dbuf = p.dbuf;
    flow.cursor += window;
    flow.pending = window;
    for (std::size_t w = 0; w < window; ++w) {
        const std::size_t issue = fence_violation ? window - 1 - w : w;
        const std::size_t line_index = first + issue;
        const Addr src = sbuf + line_index * kCacheLineSize;
        const Addr dst = dbuf + line_index * kCacheLineSize;
        // writeLine() copies the staged line into the LLC at once, so
        // the slot's staging is free again before the next window.
        memory_.readLine(src, flows_[id].staging[w].data(),
                         [this, id, w, dst](Tick) {
            ++stats_.lines_copied;
            memory_.writeLine(dst, flows_[id].staging[w].data(),
                              [this, id, dst](Tick at) {
                trace::tracer().event(flows_[id].span, trace::Stage::kCopy, at,
                                      dst);
                if (--flows_[id].pending == 0)
                    copyLines(id);
            });
        });
    }
}

void
CompCpyEngine::zeroTrailer(std::uint32_t id)
{
    // TLS only: the record trailer (tag space) belongs to dbuf but is
    // never written by the memcpy; writing zeros makes those lines
    // dirty so LLC writebacks self-recycle them like any other line.
    Flow &flow = flows_[id];
    const CompCpyParams &p = flow.params;
    const std::size_t payload_lines = divCeil(p.size, kCacheLineSize);
    const std::size_t total_lines =
        p.ulp == smartdimm::UlpKind::kTlsEncrypt
            ? flow.dst_pages * kLinesPerPage
            : payload_lines;

    if (payload_lines >= total_lines) {
        finishFlow(id);
        return;
    }

    const Addr dbuf = p.dbuf;
    flow.pending = total_lines - payload_lines;
    static const std::array<std::uint8_t, kCacheLineSize> kZeros{};
    for (std::size_t l = payload_lines; l < total_lines; ++l) {
        memory_.writeLine(dbuf + l * kCacheLineSize, kZeros.data(),
                          [this, id](Tick) {
            if (--flows_[id].pending == 0)
                finishFlow(id);
        });
    }
}

void
CompCpyEngine::finishFlow(std::uint32_t id)
{
    if (!fault_plan_) {
        completeFlow(id, 0);
        return;
    }
    // With a fault plan attached, poll the device's fault-status
    // register so rejected registrations surface as a degraded call
    // (the fault-free path issues no extra MMIO traffic).
    memory_.mmioRead(driver_.mmio(smartdimm::MmioReg::kFaultStatus),
                     flows_[id].staging[0].data(), [this, id](Tick) {
        std::uint64_t rejected = 0;
        std::memcpy(&rejected, flows_[id].staging[0].data(),
                    sizeof(rejected));
        const std::uint64_t fresh =
            rejected >= seen_rejections_ ? rejected - seen_rejections_
                                         : 0;
        seen_rejections_ = std::max(seen_rejections_, rejected);
        completeFlow(id, fresh);
    });
}

void
CompCpyEngine::completeFlow(std::uint32_t id, std::uint64_t fresh_rejections)
{
    Flow &flow = flows_[id];
    const std::uint64_t degraded =
        memory_.degradedReads() - flow.degraded_base;
    stats_.rejected_registrations += fresh_rejections;
    last_call_degraded_ = fresh_rejections > 0 || degraded > 0;
    if (last_call_degraded_) {
        ++stats_.degraded_calls;
        trace::tracer().event(flow.span, trace::Stage::kFault,
                              memory_.events().now(), flow.params.dbuf);
    }
    call_latency_.sample(memory_.events().now() - flow.begin);

    OpOutcome outcome;
    outcome.degraded = degraded > 0;
    outcome.rejected = fresh_rejections > 0;
    outcome.bailout = flow.bailed;
    // Free the slot first: the callback may start the queue's next op.
    auto on_done = std::move(flow.on_done);
    flows_.free(id);
    on_done(outcome);
}

void
CompCpyEngine::use(Addr dbuf, std::size_t bytes,
                   std::function<void()> on_done)
{
    const std::size_t lines = divCeil(bytes, kCacheLineSize);
    const std::uint32_t id = uses_.alloc();
    uses_[id].on_done = std::move(on_done);
    uses_[id].pending = lines;
    for (std::size_t l = 0; l < lines; ++l) {
        const Addr line = dbuf + l * kCacheLineSize;
        memory_.flushLine(line, [this, id, line](Tick at) {
            trace::tracer().pageEvent(line / kPageSize, trace::Stage::kUse, at,
                                      line);
            useLineDone(id);
        });
    }
}

void
CompCpyEngine::useLineDone(std::uint32_t id)
{
    UseOp &op = uses_[id];
    if (--op.pending != 0)
        return;
    auto on_done = std::move(op.on_done);
    uses_.free(id);
    on_done();
}

void
CompCpyEngine::reportStats(trace::StatsBlock &block) const
{
    block.scalar("calls", static_cast<double>(stats_.calls));
    block.scalar("pages_offloaded",
                 static_cast<double>(stats_.pages_offloaded));
    block.scalar("force_recycles",
                 static_cast<double>(stats_.force_recycles));
    block.scalar("freepages_refreshes",
                 static_cast<double>(stats_.freepages_refreshes));
    block.scalar("lines_copied",
                 static_cast<double>(stats_.lines_copied));
    block.scalar("degraded_calls",
                 static_cast<double>(stats_.degraded_calls));
    block.scalar("rejected_registrations",
                 static_cast<double>(stats_.rejected_registrations));
    block.scalar("recycle_bailouts",
                 static_cast<double>(stats_.recycle_bailouts));
    block.scalar("fence_violations",
                 static_cast<double>(stats_.fence_violations));
    block.scalar("shared_lock_acquisitions",
                 static_cast<double>(shared_.lock_acquisitions));
    block.hist("call_latency_ticks", call_latency_);
}

void
CompCpyEngine::useSync(Addr dbuf, std::size_t bytes)
{
    bool done = false;
    use(dbuf, bytes, [&done] { done = true; });
    while (!done)
        memory_.events().run();
}

std::vector<std::uint8_t>
CompCpyEngine::readResult(Addr dbuf, std::size_t bytes)
{
    const std::size_t lines = divCeil(bytes, kCacheLineSize);
    std::vector<std::uint8_t> out(lines * kCacheLineSize);
    memory_.readSync(dbuf, out.data(), out.size());
    out.resize(bytes);
    return out;
}

} // namespace sd::compcpy
