/**
 * @file
 * The explicit machine topology: N DDR4 channels x M SmartDIMM buffer
 * devices per channel behind one LLC, with per-device scratchpads,
 * cuckoo translation tables, config memories, MMIO windows, driver
 * address ranges, CompCpy engines and work queues. This factory replaces the
 * implicit single-instance MemorySystem/BufferDevice wiring: every
 * rig — benches, examples, tests — builds its system through a
 * Topology, and tools/sdcheck.py bans direct construction elsewhere.
 *
 * Address scheme (the one mem::AddressMap layout): channel c owns the
 * contiguous window [c * channel_bytes, +channel_bytes), and DIMM d
 * within it owns [base + d * dimmBytes(), +dimmBytes()). Contiguous
 * per-device windows are what makes near-memory ULP offload work at
 * all: a CompCpy's source and destination pages must live wholly on
 * one buffer device, since that device's DSA sees only its own
 * channel traffic. The factory hands its one AddressMap to the
 * controllers and to every device's Addr Remap block, so both sides
 * decode with the same object.
 */

#ifndef SD_TOPO_TOPOLOGY_H
#define SD_TOPO_TOPOLOGY_H

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/memory_system.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/queue.h"
#include "mem/cxl_link.h"
#include "mem/dimm_mux.h"
#include "smartdimm/buffer_device.h"

namespace sd::topo {

/**
 * The geometry of every slot's work queue. A far channel's slot
 * completes through the withheld CXL.mem response instead of a
 * polled record; the factory sets that signal.
 */
inline constexpr compcpy::WorkQueueConfig kSlotQueue{
    .id = 0, .mode = compcpy::QueueMode::kShared, .depth = 16,
    .max_inflight = 8};

/** Everything needed to instantiate a Topology. */
struct TopologySpec
{
    unsigned channels = 1;
    unsigned dimms_per_channel = 1;

    /**
     * CXL.mem far-memory channels appended *after* the local channels
     * (so channel indices >= channels are far). Each far channel gets
     * the same DIMM population as a local one plus a CxlLink every
     * DRAM-side access defers through; its slots' work queues
     * complete via the withheld-response protocol instead of host
     * polling.
     */
    unsigned cxl_channels = 0;
    mem::CxlLinkConfig cxl_link{};

    cache::CacheConfig llc{};

    /** Per-device config. mmio_base and the driver window (1 MB into
     *  the slot) are *slot-local* offsets; the factory rebases them
     *  into each device's window. */
    smartdimm::SmartDimmConfig device{};

    /**
     * Parse a "CxD" topology string ("1x1", "4x2"). Also accepts a
     * bare channel count ("4" == "4x1"). @return nullopt on
     * malformed input or zero counts.
     */
    static std::optional<TopologySpec> parse(const std::string &text);

    /**
     * Parse the SD_CXL far-tier grammar "N[@ns[@gbps]]" — far channel
     * count, optional link round-trip latency in ns and link rate in
     * GB/s ("1@600@32"). Applied onto @p base. @return nullopt on
     * malformed input.
     */
    static std::optional<TopologySpec>
    parseCxl(const std::string &text, const TopologySpec &base);

    /**
     * The SD_TOPOLOGY / SD_CXL env knobs: parse($SD_TOPOLOGY) and
     * parseCxl($SD_CXL) when set (an invalid value aborts loudly
     * rather than silently running the wrong machine), @p fallback
     * otherwise.
     */
    static TopologySpec fromEnv(const TopologySpec &fallback);
    static TopologySpec fromEnv() { return fromEnv(TopologySpec{}); }

    /** Local + far channels. */
    unsigned totalChannels() const { return channels + cxl_channels; }
};

/** The instantiated machine. Owns every component; non-movable. */
class Topology
{
  public:
    /**
     * One buffer device plus its host-side driver/engine stack and
     * the device's one work queue, through which every CompCpy on
     * this device runs.
     */
    struct Slot
    {
        unsigned channel = 0;
        unsigned dimm = 0;
        Addr base = 0; ///< first byte of this device's address window
        smartdimm::BufferDevice &device;
        compcpy::Driver driver;
        compcpy::CompCpyEngine engine;
        compcpy::WorkQueue queue;

        Slot(unsigned ch, unsigned d, Addr base_addr,
             smartdimm::BufferDevice &dev, cache::MemorySystem &memory,
             Addr drv_base, std::size_t drv_bytes,
             const compcpy::WorkQueueConfig &queue_config)
            : channel(ch), dimm(d), base(base_addr), device(dev),
              // dev.config() carries the rebased (global) mmio_base,
              // so driver.mmio() addresses land in this slot's window.
              driver(drv_base, drv_bytes, dev.config()),
              engine(memory, driver), queue(engine, queue_config)
        {
        }
    };

    explicit Topology(const TopologySpec &spec = {});

    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;

    unsigned channels() const { return geometry_.channels; }
    unsigned dimmsPerChannel() const { return geometry_.dimms_per_channel; }
    unsigned slotCount() const { return static_cast<unsigned>(slots_.size()); }

    /** Channels without a CXL link in front (indices 0..N-1). */
    unsigned localChannels() const { return spec_.channels; }

    /** @return true when @p channel sits behind a CXL.mem link. */
    bool
    isFarChannel(unsigned channel) const
    {
        return channel >= spec_.channels;
    }

    /** @return true when slot @p flat lives on a far channel. */
    bool
    isFarSlot(unsigned flat) const
    {
        return isFarChannel(slots_[flat].channel);
    }

    /** The link serving @p channel, or null for a local channel. */
    mem::CxlLink *
    cxlLink(unsigned channel)
    {
        return memory_->cxlLink(channel);
    }

    EventQueue &events() { return events_; }
    cache::MemorySystem &memory() { return *memory_; }
    mem::BackingStore &store() { return store_; }
    const TopologySpec &spec() const { return spec_; }

    /** Flat slot index (channel-major). */
    unsigned
    slotIndex(unsigned channel, unsigned dimm) const
    {
        return channel * geometry_.dimms_per_channel + dimm;
    }

    Slot &slot(unsigned flat) { return slots_[flat]; }
    const Slot &slot(unsigned flat) const { return slots_[flat]; }
    Slot &slot(unsigned ch, unsigned d) { return slots_[slotIndex(ch, d)]; }

    /** First byte of slot (ch, d)'s contiguous address window. */
    Addr
    slotBase(unsigned ch, unsigned d) const
    {
        return static_cast<Addr>(ch) * geometry_.channel_bytes +
               static_cast<Addr>(d) * geometry_.dimmBytes();
    }

    /**
     * Attach a fault plan to every component: channel controllers
     * (self-scoped as mem[ch]), buffer devices and engines (scoped as
     * smartdimm[ch][dimm]).
     */
    void setFaultPlan(fault::FaultPlan *plan);

    /**
     * Register every component under per-device names: "llc",
     * "mc.chN" (via MemorySystem), "smartdimm.chN.dM" and
     * "compcpy.chN.dM" per slot, plus "cxl.chN" per far-channel link
     * — no key ever aggregates two devices. The registry must not
     * outlive the topology.
     */
    void registerStats(trace::StatsRegistry &registry) const;

  private:
    TopologySpec spec_;
    EventQueue events_;
    mem::DramGeometry geometry_;
    mem::AddressMap map_;
    mem::BackingStore store_;
    /** deque: BufferDevice references must stay stable. */
    std::deque<smartdimm::BufferDevice> devices_;
    std::deque<mem::DimmMux> muxes_; ///< one per channel when M > 1
    std::deque<mem::CxlLink> links_; ///< one per far channel
    std::unique_ptr<cache::MemorySystem> memory_;
    std::deque<Slot> slots_;
};

} // namespace sd::topo

#endif // SD_TOPO_TOPOLOGY_H
