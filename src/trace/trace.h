/**
 * @file
 * End-to-end observability for the CompCpy pipeline.
 *
 * Two cooperating pieces:
 *
 *  - Tracer: a span-based event recorder. Each CompCpy invocation
 *    opens a span; every pipeline stage — source cache flush, MMIO
 *    registration, 64 B copy loop, DSA transform, scratchpad staging,
 *    self-/force-recycle drain, USE-side flush — appends a
 *    cycle-stamped event to the span. Device-side components that do
 *    not know about spans attribute events through a page→span
 *    binding the engine establishes at span start. The memory
 *    controllers can additionally mirror their full DDR command
 *    stream into the tracer (golden-trace regression tests diff this
 *    sequence against a checked-in file).
 *
 *  - StatsRegistry: components register named provider blocks that
 *    emit scalar and Histogram/LogHistogram summaries on demand;
 *    the harness dumps everything as JSON or CSV after a run.
 *
 * Recording is a direct `tracer().<entry>()` call. Cost model: every
 * recording entry point begins with a single predictable branch on
 * `enabled_`, the one off switch, so a disabled tracer adds near-zero
 * overhead to the simulation hot paths.
 *
 * Concurrency contract: the Tracer is genuinely process-shared state
 * (many driver threads, each owning an independent simulated system,
 * record into the one tracer()). Every recording entry point is
 * therefore thread-safe behind an annotated mutex; the enabled check
 * stays a lock-free atomic load so the disabled fast path is
 * unchanged. Event order under concurrency follows lock-acquisition
 * order; single-threaded runs are bit-identical to the unsynchronised
 * implementation (the golden-trace suite is the guard). A
 * StatsRegistry is single-owner, like the components it collects.
 */

#ifndef SD_TRACE_TRACE_H
#define SD_TRACE_TRACE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace sd::trace {

/** Pipeline stages and DDR command mirror events a span can carry. */
enum class Stage : std::uint8_t
{
    kFlush = 0,     ///< sbuf clflush completed (Alg. 2 line 19)
    kRegister,      ///< MMIO page-pair registration write (S17)
    kCopy,          ///< one 64 B line of the copy loop landed
    kTransform,     ///< DSA consumed an sbuf line (S6)
    kStage,         ///< DSA result line staged in the Scratchpad
    kRecycle,       ///< Self-Recycle drain of a staged line (S8/S9)
    kForceRecycle,  ///< Force-Recycle invoked (Alg. 1)
    kUse,           ///< USE-side flush of a dbuf line (Alg. 2 l. 32)
    kAlert,         ///< ALERT_N retry of a premature dbuf read (S13)
    kFault,         ///< injected fault or degraded-mode transition
    kDdrRead,       ///< mirrored rdCAS
    kDdrWrite,      ///< mirrored wrCAS
    kDdrActivate,   ///< mirrored ACT
    kDdrPrecharge,  ///< mirrored PRE
    kSubmit,        ///< work-queue descriptor accepted (doorbell rung)
    kComplete,      ///< completion record written for a descriptor op
    kCount,
};

/** Stable short name used in every dump format. */
const char *stageName(Stage s);

/**
 * Intern @p name into a process-lifetime pool and return a pointer
 * valid for the rest of the process. Span kinds are borrowed
 * `const char *`: a dynamically composed name (e.g. a per-device span
 * tag like "tls.ch1.d0") must outlive every consumer of the trace —
 * including dumps taken after the component that composed it is gone —
 * so it goes through this pool rather than a member string.
 * Thread-safe; the pool only ever grows (a few names per device).
 */
const char *internString(const std::string &name);

/** One cycle-stamped trace record. */
struct TraceEvent
{
    Tick tick = 0;
    std::uint32_t span = 0; ///< owning span id, 0 = unattributed
    Stage stage = Stage::kCount;
    Addr addr = 0;
};

/** One CompCpy invocation (or other traced unit of work). */
struct Span
{
    std::uint32_t id = 0;
    const char *kind = ""; ///< "tls" | "deflate" | caller-defined
    Addr sbuf = 0;
    Addr dbuf = 0;
    std::size_t bytes = 0;
    Tick begin = 0;
    /** Explicit end mark from endSpan(); 0 = derived from last event. */
    Tick end = 0;
};

/**
 * A flat, ordered set of (name, value) rows one component contributes
 * to a stats dump. Histogram helpers expand into the conventional
 * summary rows (count/mean/p50/p90/p99/max).
 */
class StatsBlock
{
  public:
    void scalar(const std::string &name, double value);

    /** Summarise a linear histogram. */
    void hist(const std::string &name, const Histogram &h);

    /** Summarise a log histogram (latency-style percentiles). */
    void hist(const std::string &name, const LogHistogram &h);

    const std::vector<std::pair<std::string, double>> &
    entries() const
    {
        return entries_;
    }

  private:
    std::vector<std::pair<std::string, double>> entries_;
};

/**
 * Named stats providers, collected lazily at dump time so components
 * do not pay any bookkeeping cost during the run. Register with a
 * stable component name; re-registering replaces. Providers capture
 * raw pointers into their components — remove (or discard the
 * registry) before the component is destroyed.
 *
 * Single-owner, like the simulated system whose components register
 * in it: one thread adds, removes and collects. A provider must not
 * add or remove providers.
 */
class StatsRegistry
{
  public:
    using Provider = std::function<void(StatsBlock &)>;

    void add(const std::string &component, Provider provider);
    void remove(const std::string &component);

    /** Collect every provider into (component, block) rows. */
    std::vector<std::pair<std::string, StatsBlock>> collect() const;

    /** `{"component": {"name": value, ...}, ...}` */
    void dumpJson(std::ostream &os) const;

    /** `component,name,value` rows. */
    void dumpCsv(std::ostream &os) const;

  private:
    /** Insertion-ordered so dumps are reproducible. */
    std::vector<std::pair<std::string, Provider>> providers_;
};

/**
 * Span/event recorder. Use the process-wide instance via tracer().
 * All recording entry points are thread-safe (see the file comment).
 */
class Tracer
{
  public:
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** @return true when DDR commands should be mirrored too. */
    bool
    ddrCapture() const
    {
        return enabled() && capture_ddr_.load(std::memory_order_relaxed);
    }

    /**
     * Start recording. @p capture_ddr additionally mirrors every DDR
     * command the memory controllers emit (verbose; used by the
     * golden-trace tests and fig09-style analyses).
     */
    void enable(bool capture_ddr = false);

    /** Stop recording; captured data stays until clear(). */
    void disable() { enabled_.store(false, std::memory_order_relaxed); }

    /** Drop spans, events and page bindings (keeps enable state). */
    void clear();

    /** Cap the event buffer; excess events count as dropped. */
    void setMaxEvents(std::size_t n);

    // ----- recording --------------------------------------------------------

    /** Open a span. @return its id (0 when disabled). */
    std::uint32_t beginSpan(const char *kind, Addr sbuf, Addr dbuf,
                            std::size_t bytes, Tick now);

    /**
     * Mark a span finished at @p tick. Page bindings stay intact
     * (device-side drains trail a CompCpy, so late events still
     * attribute correctly until clear()). The mark is advisory
     * metadata surfaced through spans(); derived span end times in
     * the dumps are unchanged.
     */
    void endSpan(std::uint32_t span, Tick tick);

    /** Attribute device-side events on @p page to @p span. */
    void bindPage(std::uint64_t page, std::uint32_t span);

    /** @return span bound to @p page, or 0. */
    std::uint32_t spanOfPage(std::uint64_t page) const;

    /** Record an event on an explicit span (0 is dropped). */
    void event(std::uint32_t span, Stage stage, Tick tick, Addr addr = 0);

    /** Record an event attributed through the page binding. */
    void pageEvent(std::uint64_t page, Stage stage, Tick tick,
                   Addr addr = 0);

    /** One buffered DDR-mirror record (see DdrBatch). */
    struct DdrRecord
    {
        Stage stage;
        Tick tick;
        Addr addr;
    };

    /**
     * Mirror @p n DDR commands in one lock acquisition, in array
     * order. Each is recorded even when unattributed (its page has no
     * bound span).
     */
    void ddrEvents(const DdrRecord *recs, std::size_t n);

    /**
     * Record a kFault event attributed through the page binding of
     * @p page, but — unlike pageEvent() — recorded even when no span
     * is bound (fault sites may fire outside any CompCpy, e.g. an MMIO
     * register lie). The fault-injected golden trace pins these.
     */
    void faultEvent(std::uint64_t page, Tick tick, Addr addr);

    // ----- inspection -------------------------------------------------------

    /** Snapshot of all spans opened so far. */
    std::vector<Span> spans() const;

    /** Snapshot of the event log in capture order. */
    std::vector<TraceEvent> events() const;

    std::uint64_t droppedEvents() const;

    /** Events of @p span grouped in capture order. */
    std::vector<TraceEvent> spanEvents(std::uint32_t span) const;

    /** @return true when @p span recorded at least one @p stage. */
    bool spanHasStage(std::uint32_t span, Stage stage) const;

    // ----- dumping ----------------------------------------------------------

    /**
     * Full JSON report: spans with per-stage {count, first, last}
     * summaries, cross-span per-stage completion-latency percentiles,
     * and (when given) an embedded stats registry dump.
     */
    void dumpJson(std::ostream &os,
                  const StatsRegistry *stats = nullptr) const;

    /** `tick,span,stage,addr` rows in capture order. */
    void dumpCsv(std::ostream &os) const;

    /** dumpJson into @p path. @return false on I/O failure. */
    bool writeJsonFile(const std::string &path,
                       const StatsRegistry *stats = nullptr) const;

  private:
    std::uint32_t spanOfPageLocked(std::uint64_t page) const
        SD_REQUIRES(mu_);
    void recordLocked(std::uint32_t span, Stage stage, Tick tick,
                      Addr addr) SD_REQUIRES(mu_);
    void dumpJsonLocked(std::ostream &os, const StatsRegistry *stats)
        const SD_REQUIRES(mu_);
    void dumpCsvLocked(std::ostream &os) const SD_REQUIRES(mu_);

    /** Lock-free so the disabled fast path stays a single branch. */
    std::atomic<bool> enabled_{false};
    std::atomic<bool> capture_ddr_{false};

    mutable Mutex mu_;
    std::size_t max_events_ SD_GUARDED_BY(mu_) = 1u << 20;
    std::uint64_t dropped_ SD_GUARDED_BY(mu_) = 0;
    std::vector<Span> spans_ SD_GUARDED_BY(mu_);
    std::vector<TraceEvent> events_ SD_GUARDED_BY(mu_);
    std::unordered_map<std::uint64_t, std::uint32_t> page_span_
        SD_GUARDED_BY(mu_);
};

/** The process-wide tracer every simulator component records into. */
Tracer &tracer();

/**
 * Batched DDR-mirror emission for the memory controller's
 * per-command path. The seed took the tracer mutex and did a
 * page→span hash lookup per DDR command; one FR-FCFS scheduler pass
 * can emit a burst of PRE/ACT/CAS commands, so the controller
 * buffers them here and flushes once per pass (or when the buffer
 * fills).
 *
 * Ordering caveat: batching is only capture-order-preserving because
 * nothing else records into the tracer between add() and flush() —
 * a scheduler pass is one event callback, and the attached DIMM
 * device records nothing synchronously from onCommand(). The
 * golden-trace suite pins byte-identity with unbatched recording.
 * Owners must flush() before returning to the event loop.
 */
class DdrBatch
{
  public:
    static constexpr std::size_t kCapacity = 64;

    void
    add(Stage stage, Tick tick, Addr addr)
    {
        if (n_ == kCapacity)
            flush();
        buf_[n_++] = Tracer::DdrRecord{stage, tick, addr};
    }

    void
    flush()
    {
        if (n_ == 0)
            return;
        tracer().ddrEvents(buf_, n_);
        n_ = 0;
    }

  private:
    Tracer::DdrRecord buf_[kCapacity];
    std::size_t n_ = 0;
};

} // namespace sd::trace

#endif // SD_TRACE_TRACE_H
