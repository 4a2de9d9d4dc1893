/**
 * @file
 * Shared pieces of the repository benchmark (perfbench): the per-pass
 * result every workload returns, the host-time span recorder, and the
 * helpers that turn the simulator's stats registry into per-layer
 * metrics.
 *
 * Clocks. Every number names the clock it was measured on:
 *  - host: steady_clock time the simulator took to produce a result;
 *  - simulated: ticks (picoseconds) of the modelled hardware.
 *
 * A workload does a fixed amount of simulated work per pass, on a
 * freshly constructed system (caches, row buffers and queues start
 * empty). The benchmark repeats passes for the requested host time;
 * the simulated results of every pass must be bit-identical. Each pass
 * times its work in slices, and wall_s sums each slice's fastest time
 * over all passes.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "crypto/aes_gcm.h"
#include "sim/event_queue.h"
#include "trace/trace.h"

namespace sd::cache {
class MemorySystem;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Ticks are picoseconds. */
inline constexpr double kTicksPerUs = 1e6;
/** Simulated width of one timed slice of an event-loop run (200 us). */
inline constexpr sd::Tick kSliceTicks = 200'000'000;
/** DDR4-3200 command clock, ticks per cycle. */
inline constexpr sd::Tick kDramCycleTicks = 625;

/** Host seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/**
 * Host-time spans recorded around the benchmark's calls into each
 * layer (Topology construction, place/submit, EventQueue::run, ...).
 * Spans nest: a span opened while another is open becomes its child,
 * and a name's self time is its duration minus its children's. Only
 * records while enabled; kept in memory and summarised at the end.
 */
class HostSpans
{
  public:
    /** RAII span; a no-op when the recorder is disabled. */
    class Scope
    {
      public:
        Scope(HostSpans &owner, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostSpans &owner_;
        std::int64_t index_ = -1;
    };

    struct Summary
    {
        std::string name;
        std::uint64_t count = 0;
        double total_s = 0;
        double self_s = 0;
    };

    void setEnabled(bool on) { enabled_ = on; }

    /** Per-name totals in first-seen order. */
    std::vector<Summary> summarize() const;

    /** Total seconds recorded under @p name (0 when never seen). */
    double total(const std::string &name) const;

  private:
    struct Record
    {
        const char *name;
        std::int64_t parent;
        Clock::time_point begin;
        Clock::time_point end;
    };

    bool enabled_ = false;
    std::int64_t open_ = -1; ///< innermost open span, -1 = none
    std::vector<Record> records_;
};

/** Everything one pass of a workload produced. */
struct PassResult
{
    double setup_s = 0; ///< host: construction + input staging
    double wall_s = 0;  ///< host: the fixed work after set-up

    /**
     * host: wall_s split into consecutive slices of the work (simulated
     * time windows, or model evaluations). Every pass does identical
     * work, so slice k of one pass is comparable with slice k of any
     * other.
     */
    std::vector<double> slices;

    std::uint64_t attempted = 0; ///< ops (or evaluations) attempted
    std::uint64_t failed = 0;    ///< bad status, bad output, not exactly-once

    std::uint64_t events = 0; ///< EventQueue callbacks executed
    sd::Tick sim_ticks = 0;   ///< simulated span of the pass
    std::vector<sd::Tick> latency; ///< per-op due -> end of USE

    /** Per-layer metrics of this pass (simulated clock unless named). */
    std::map<std::string, double> layer;

    /** FNV-1a over the stats registry and every per-op outcome. */
    std::uint64_t digest = 0;

    /** First few verification failures, for the report. */
    std::vector<std::string> errors;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
    }
};

/** One benchmark workload: fixed inputs made from the seed. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Set up a fresh system, run the fixed work, verify every output. */
    virtual PassResult run(HostSpans &spans) = 0;

    /**
     * Replay the pass's functional kernel calls (AES-GCM, Deflate)
     * outside the simulator through the DSAs' entry points, recording
     * host seconds and bytes into @p layer. Default: none.
     */
    virtual void replayKernels(std::map<std::string, double> &layer,
                               HostSpans &spans);

    /**
     * Print each simulated value beside its paper reference. Default:
     * state that the workload has no hardware reference.
     */
    virtual void printAnchors() const;

    /** True for workloads that run the cycle-level simulator. */
    virtual bool cycleLevel() const { return true; }

    /** One-line description printed with every result. */
    virtual std::string describe() const = 0;
};

std::unique_ptr<Workload> makeClosedLoop(std::uint64_t seed);
std::unique_ptr<Workload> makeOpenLoop(std::uint64_t seed);
std::unique_ptr<Workload> makeServerSweep(std::uint64_t seed);

// ----- helpers shared by the workloads ---------------------------------------

/** Incremental FNV-1a. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t len);
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }
    void str(const std::string &s) { bytes(s.data(), s.size()); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Fold every registry row into @p digest. */
void digestRegistry(const sd::trace::StatsRegistry &registry,
                    Digest &digest);

/**
 * Sum of scalar @p name over every registry component whose name
 * starts with @p prefix ("mc.ch" sums all channel controllers).
 */
double sumStat(const std::vector<std::pair<std::string,
                                           sd::trace::StatsBlock>> &rows,
               const std::string &prefix, const std::string &name);

/**
 * The memory, cache, SmartDIMM and CompCpy-engine layer metrics every
 * cycle-level pass shares, derived from @p registry and written into
 * @p out. @p ops normalises the per-op counts.
 */
void memoryLayerMetrics(const sd::trace::StatsRegistry &registry,
                        std::uint64_t ops, sd::Tick sim_ticks,
                        std::map<std::string, double> &out);

/**
 * Drain @p events in windows of kSliceTicks simulated time, appending
 * each window's host seconds to @p res.slices and their sum to
 * @p res.wall_s.
 */
void runSliced(sd::EventQueue &events, PassResult &res);

/**
 * The consumer's read-back of one transformed record at @p addr: the
 * line reads CompCpyEngine::readResult() would issue. readResult()
 * pumps the event loop, so a consumer running inside the loop issues
 * them asynchronously. @p out receives @p bytes bytes; @p done runs
 * once the last line has landed. @p out must stay in place until then.
 */
void readBack(sd::cache::MemorySystem &memory, sd::Addr addr,
              std::size_t bytes, std::vector<std::uint8_t> &out,
              std::function<void()> done);

/**
 * True when @p record (@p size bytes of AES-128-GCM ciphertext followed
 * by its tag) authenticates under @p key and @p iv and decrypts to
 * @p plain.
 */
bool gcmRecordMatches(const std::uint8_t (&key)[16],
                      const sd::crypto::GcmIv &iv,
                      const std::uint8_t *record, std::size_t size,
                      const std::uint8_t *plain);

/** Per-op CompCpy stage times, simulated microseconds. */
struct CompCpyTimes
{
    std::vector<double> wait;    ///< dispatched - submitted (or due)
    std::vector<double> service; ///< completed - dispatched
    std::vector<double> use;     ///< end of USE - completed

    /** Write compcpy.{queue_wait,service,use}_us.{p50,p99} to @p out. */
    void report(std::map<std::string, double> &out) const;
};

/** Nearest-rank percentile of an unsorted sample (0 when empty). */
double percentile(std::vector<double> values, double q);

/** Median (0 when empty). */
double median(std::vector<double> values);

/**
 * Critical-path waterfall of every span the tracer recorded: the
 * stage stamps of each op become a monotone chain of boundaries
 * submit -> flush -> register -> copy -> dsa -> complete -> recycle ->
 * use, and each segment's p50/p99 in simulated microseconds lands in
 * @p out as waterfall.<segment>_us.p50 / .p99.
 */
void waterfallMetrics(const sd::trace::Tracer &tracer,
                      std::map<std::string, double> &out);

/** The seven waterfall segments, in chain order. */
const std::vector<std::string> &waterfallSegments();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
