/**
 * @file
 * The CompCpy API (Algorithm 2) and Force-Recycle (Algorithm 1).
 * CompCpy extends memcpy: while copying a 4 KB-aligned source buffer
 * to a destination buffer it configures SmartDIMM so the data is
 * transformed on its way through the DDR channel. The engine runs
 * against the simulated MemorySystem, so every step — the cache
 * flush, the MMIO registration, the 64-byte copy loop with optional
 * fences, and the USE-side flush — produces real DDR commands at the
 * buffer device.
 */

#ifndef SD_COMPCPY_COMPCPY_H
#define SD_COMPCPY_COMPCPY_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/memory_system.h"
#include "common/stats.h"
#include "common/types.h"
#include "compcpy/driver.h"
#include "crypto/aes_gcm.h"
#include "fault/fault.h"
#include "sim/slot_pool.h"
#include "smartdimm/dsa.h"
#include "smartdimm/mmio_layout.h"
#include "trace/trace.h"

namespace sd::compcpy {

/** Parameters of one CompCpy invocation. */
struct CompCpyParams
{
    Addr dbuf = 0;          ///< page-aligned destination
    Addr sbuf = 0;          ///< page-aligned source
    std::size_t size = 0;   ///< source bytes (payload)
    bool ordered = false;   ///< fence between 64 B copies (Deflate)

    /** TLS context (used when ulp == kTlsEncrypt). */
    std::uint8_t key[16] = {};
    crypto::GcmIv iv{};
    std::uint64_t message_id = 0;

    smartdimm::UlpKind ulp = smartdimm::UlpKind::kTlsEncrypt;
};

/**
 * How one CompCpy op finished, reported to the owning work queue so
 * its completion record can mirror the PR 5 fault outcomes.
 */
struct OpOutcome
{
    bool degraded = false; ///< ALERT_N-exhausted (degraded) reads seen
    bool rejected = false; ///< device rejected a page registration
    bool bailout = false;  ///< Force-Recycle loop hit its bound
};

/** Outcome counters for one engine instance. */
struct CompCpyStats
{
    std::uint64_t calls = 0;
    std::uint64_t pages_offloaded = 0;
    std::uint64_t force_recycles = 0;
    std::uint64_t freepages_refreshes = 0;
    std::uint64_t lines_copied = 0;
    std::uint64_t degraded_calls = 0;    ///< kDegraded reads or rejections
    std::uint64_t rejected_registrations = 0; ///< device-side rejections seen
    std::uint64_t recycle_bailouts = 0;  ///< Force-Recycle loop bounded
    std::uint64_t fence_violations = 0;  ///< injected ordered-mode breaks
    std::uint64_t lock_acquisitions = 0; ///< freePages checks (Alg. 2 l. 7)
};

/**
 * The userspace CompCpy engine of one buffer device. Ops reach it
 * only through that device's WorkQueue (topo::Topology::Slot::queue).
 * The engine owns the freePages shadow counter, Algorithm 2's
 * lock-protected global: one thread drives each simulated system, so
 * the lock is counted, not taken.
 */
class CompCpyEngine
{
  public:
    CompCpyEngine(cache::MemorySystem &memory, Driver &driver);
    ~CompCpyEngine();

    /**
     * USE(dbuf) (Alg. 2 line 32-33): flush the destination so the
     * Scratchpad drains to DRAM, making the transformed bytes visible.
     */
    void use(Addr dbuf, std::size_t bytes,
             std::function<void()> on_done);

    /** Synchronous use(). */
    void useSync(Addr dbuf, std::size_t bytes);

    /** Read transformed bytes back (after useSync). */
    std::vector<std::uint8_t> readResult(Addr dbuf, std::size_t bytes);

    /** Destination pages (incl. TLS trailer) a params needs. */
    static std::size_t destPages(const CompCpyParams &params);

    /**
     * Attach a fault plan (not owned; may be null). The engine itself
     * consults kOrderedFence (an ordered-mode copy issues one window
     * of two lines in reverse, breaking the fence contract); with any
     * plan attached it additionally polls the device's kFaultStatus
     * register at call completion so rejected registrations and
     * degraded reads surface as degraded_calls.
     */
    void setFaultPlan(fault::FaultPlan *plan) { fault_plan_ = plan; }

    /**
     * Name the device this engine drives so scoped fault rules
     * (`smartdimm[ch][dimm]/...`) can target its host-side sites
     * (kOrderedFence here, kQueueFull/kLostCompletion in the queues).
     */
    void setFaultScope(const fault::FaultScope &scope)
    {
        fault_scope_ = scope;
    }

    const fault::FaultScope &faultScope() const { return fault_scope_; }

    /**
     * Suffix for trace span names opened on this engine's behalf
     * (e.g. "ch1.d0" makes TLS spans "tls.ch1.d0"). Empty — the
     * default — keeps the legacy single-device names, so 1x1 golden
     * traces are unaffected. Composed names are interned because
     * trace::Span borrows the `const char *` and spans outlive the
     * engine (per-thread engines die before the tracer dumps).
     */
    void
    setSpanTag(const std::string &tag)
    {
        tls_span_name_ =
            tag.empty() ? "tls" : trace::internString("tls." + tag);
        deflate_span_name_ =
            tag.empty() ? "deflate"
                        : trace::internString("deflate." + tag);
    }

    /** Stable span name for @p ulp (valid process-wide). */
    const char *
    spanName(smartdimm::UlpKind ulp) const
    {
        return ulp == smartdimm::UlpKind::kTlsEncrypt
                   ? tls_span_name_
                   : deflate_span_name_;
    }

    const CompCpyStats &stats() const { return stats_; }

    /** Contribute engine counters to a stats dump. */
    void reportStats(trace::StatsBlock &block) const;

    // Accessors the work-queue front end drives the simulation with.
    cache::MemorySystem &memory() { return memory_; }
    Driver &driver() { return driver_; }
    fault::FaultPlan *faultPlan() { return fault_plan_; }

  private:
    friend class WorkQueue; ///< sole caller of startOp()

    struct Flow; ///< per-invocation continuation state

    /** An op's completion (move-only; its captures stay inline). */
    using OpCallback = UniqueFunctionT<void(const OpOutcome &)>;

    /**
     * Execute one op of a dispatched descriptor: the full Algorithm 2
     * sequence (freePages check, Force-Recycle, flush, registration,
     * copy loop, trailer). Private by design — every op reaches the
     * engine through a WorkQueue, so the queue is the one execution
     * path (tools/sdcheck.py enforces the same at the source level).
     * @p span is the trace span the owning queue opened at submit.
     */
    void startOp(const CompCpyParams &params, std::uint32_t span,
                 OpCallback on_done);

    /** A pending use(): its callback and outstanding flushes. */
    struct UseOp
    {
        std::function<void()> on_done;
        std::size_t pending = 0;
    };

    // Every stage takes the flow's pool id; continuations capture
    // {this, id}. No Flow & is held across a MemorySystem call.
    void checkFreePages(std::uint32_t id);
    void forceRecycle(std::uint32_t id, std::size_t required_pages);
    void recycleLineDone(std::uint32_t id);
    void flushSource(std::uint32_t id);
    void registerPages(std::uint32_t id);
    void copyLines(std::uint32_t id);
    void zeroTrailer(std::uint32_t id);
    void finishFlow(std::uint32_t id);
    void completeFlow(std::uint32_t id, std::uint64_t fresh_rejections);
    void useLineDone(std::uint32_t id);

    cache::MemorySystem &memory_;
    Driver &driver_;
    /** freePages shadow (Alg. 2 line 1); -1 forces an MMIO refresh. */
    std::int64_t free_pages_ = -1;
    fault::FaultPlan *fault_plan_ = nullptr;
    fault::FaultScope fault_scope_;
    const char *tls_span_name_ = "tls";        ///< interned/static
    const char *deflate_span_name_ = "deflate"; ///< interned/static
    std::uint64_t seen_rejections_ = 0; ///< kFaultStatus poll baseline
    CompCpyStats stats_;
    LogHistogram call_latency_;
    SlotPool<Flow> flows_;
    SlotPool<UseOp> uses_;
};

} // namespace sd::compcpy

#endif // SD_COMPCPY_COMPCPY_H
