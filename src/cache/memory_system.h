/**
 * @file
 * The host-side memory system: LLC in front of one or more DDR4
 * channels, each terminated by a DIMM device (plain or SmartDIMM).
 * Offers the line-granular operations the software stack performs —
 * cached loads/stores, clflush, uncached MMIO, and device DMA with
 * DDIO allocation — in both callback (event-driven) and synchronous
 * (run-to-completion) forms.
 */

#ifndef SD_CACHE_MEMORY_SYSTEM_H
#define SD_CACHE_MEMORY_SYSTEM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "common/types.h"
#include "mem/address_map.h"
#include "mem/backing_store.h"
#include "mem/dram_command.h"
#include "mem/memory_controller.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/slot_pool.h"
#include "trace/trace.h"

namespace sd::mem {
class CxlLink;
} // namespace sd::mem

namespace sd::cache {

/** Fixed host-side latencies (ticks = ps). */
struct HostLatencies
{
    Tick llc_hit = 14'000;     ///< ~14 ns LLC round trip
    Tick flush_clean = 4'000;  ///< clflush of an absent/clean line
    Tick store_commit = 2'000; ///< store visible to the cache
};

/** A plain (non-accelerating) DIMM: DRAM backed by the BackingStore. */
class PlainDimm : public mem::DimmDevice
{
  public:
    explicit PlainDimm(mem::BackingStore &store) : store_(store) {}

    void onCommand(const mem::DdrCommand &) override {}

    mem::ReadResponse
    onRead(const mem::DdrCommand &cmd, std::uint8_t *data) override
    {
        store_.read(cmd.addr, data, kCacheLineSize);
        return mem::ReadResponse::kOk;
    }

    void
    onWrite(const mem::DdrCommand &cmd, const std::uint8_t *data) override
    {
        store_.write(cmd.addr, data, kCacheLineSize);
    }

  private:
    mem::BackingStore &store_;
};

/**
 * Host memory system. Channel devices are supplied by the caller so
 * SmartDIMM buffer devices can be slotted in for any subset of
 * channels.
 */
class MemorySystem
{
  public:
    /** Completion callback (move-only; see sim/unique_function.h). */
    using Callback = UniqueFunctionT<void(Tick)>;

    /**
     * @param map the address layout every channel controller decodes
     *            with; not owned, must outlive this object
     * @param devices one DimmDevice per channel (map.geometry().channels)
     */
    MemorySystem(EventQueue &events, const mem::AddressMap &map,
                 const CacheConfig &cache_config,
                 std::vector<mem::DimmDevice *> devices,
                 const mem::DramTiming &timing = {},
                 const mem::ControllerConfig &mc_config = {},
                 const HostLatencies &latencies = {});

    // ----- cached (CPU) path ------------------------------------------------

    /** Load one line through the LLC into @p dst. */
    void readLine(Addr addr, std::uint8_t *dst, Callback cb);

    /**
     * Store one full line through the LLC (full-line stores allocate
     * without fetching, as optimised memcpy does).
     */
    void writeLine(Addr addr, const std::uint8_t *src, Callback cb);

    /** clflush: writeback-if-dirty + invalidate. */
    void flushLine(Addr addr, Callback cb);

    // ----- uncached paths ---------------------------------------------------

    /** Uncached 64 B MMIO write (SmartDIMM config registers). */
    void mmioWrite(Addr addr, const std::uint8_t *src, Callback cb);

    /** Uncached 64 B MMIO read (pending lists, freePages). */
    void mmioRead(Addr addr, std::uint8_t *dst, Callback cb);

    /** Device DMA write (DDIO: allocates into the restricted ways). */
    void dmaWriteLine(Addr addr, const std::uint8_t *src, Callback cb);

    /** Device DMA read (e.g. NIC TX fetching a payload). */
    void dmaReadLine(Addr addr, std::uint8_t *dst, Callback cb);

    // ----- synchronous conveniences ----------------------------------------

    /** Run the event queue until @p pending ops complete. */
    void drain();

    /** Blocking multi-line helpers used by tests and examples. */
    void readSync(Addr addr, std::uint8_t *dst, std::size_t len);
    void writeSync(Addr addr, const std::uint8_t *src, std::size_t len);
    void flushSync(Addr addr, std::size_t len);

    // ----- accessors --------------------------------------------------------

    Cache &llc() { return llc_; }
    const Cache &llc() const { return llc_; }
    EventQueue &events() { return events_; }
    mem::MemoryController &controller(unsigned channel);
    unsigned channels() const
    {
        return static_cast<unsigned>(controllers_.size());
    }

    /** Total DRAM traffic in bytes across all channels. */
    std::uint64_t dramBytes() const;

    /**
     * Attach a fault plan (not owned; may be null) to every channel
     * controller. The host-facing Callback API is unchanged — degraded
     * completions are tallied here and exposed via degradedReads() so
     * upper layers (CompCpy) can detect that a window of their traffic
     * came back untrusted.
     */
    void setFaultPlan(fault::FaultPlan *plan);

    /** Completions that came back mem::MemStatus::kDegraded. */
    std::uint64_t degradedReads() const { return degraded_reads_; }

    /** Host ops issued whose callback has not started yet. */
    std::size_t pendingOps() const { return ops_.live(); }

    /**
     * Mark @p channel as CXL-attached far memory: every DRAM-side
     * access on it (LLC misses, writebacks with completions, MMIO)
     * defers its completion through @p link. LLC hits stay local-speed
     * — the cache hides the far tier exactly as real CXL.mem caching
     * does. The link is not owned and must outlive this object.
     */
    void attachCxlLink(unsigned channel, mem::CxlLink *link);

    /** @return the link serving @p channel, or null if local. */
    mem::CxlLink *cxlLink(unsigned channel) const;

    /**
     * Register "<prefix>llc" and one "<prefix>mc.chN" provider per
     * channel into @p registry. Providers reference this object —
     * remove them (or drop the registry) before destroying it.
     */
    void registerStats(trace::StatsRegistry &registry,
                       const std::string &prefix = "") const;

  private:
    /**
     * One pending host op. It lives in a pool slot from issue until
     * just before its callback runs; event, controller and CXL
     * continuations capture {this, slot} (plus the link and status on
     * a far channel), which always fits UniqueFunctionT inline.
     */
    struct HostOp
    {
        Callback cb;
        /** Set for an LLC fill: DRAM writes the caller's buffer, and
         *  finish() installs it into the line allocated for `line`. */
        std::uint8_t *fill = nullptr;
        Addr line = 0;
    };

    mem::MemoryController &route(Addr addr);
    /** Enqueue the access's dirty victim, if any. Call it before
     *  writing the filled line: the victim's bytes live in that slot. */
    void writebackVictim(const AccessResult &result);

    /** Park @p cb in a fresh slot. */
    std::uint32_t park(Callback cb);

    /** Complete @p slot after @p delay (the local-speed paths). */
    void finishIn(Tick delay, std::uint32_t slot);

    /**
     * The controller completion for @p slot. On a far channel it ships
     * the response over the CXL link and finishes on arrival.
     */
    mem::MemCallback dramDone(Addr addr, std::uint32_t slot);

    /**
     * Tally a kDegraded completion, install a fill into the LLC, then
     * free the slot and run its callback.
     */
    void finish(std::uint32_t slot, Tick at, mem::MemStatus status);

    EventQueue &events_;
    const mem::AddressMap &map_;
    Cache llc_;
    HostLatencies latencies_;
    std::vector<std::unique_ptr<mem::MemoryController>> controllers_;
    std::vector<mem::CxlLink *> links_; ///< per channel; null = local
    SlotPool<HostOp> ops_;
    std::uint64_t degraded_reads_ = 0;
};

} // namespace sd::cache

#endif // SD_CACHE_MEMORY_SYSTEM_H
