#include "topo/topology.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/log.h"

namespace sd::topo {

namespace {

/**
 * Parse a digit-led unsigned count at @p text; @p end receives the
 * first unparsed character. strtoul silently accepts signs and
 * whitespace, and its unsigned long would wrap when narrowed, so the
 * count must start with a digit and fit in `unsigned` without ERANGE.
 */
std::optional<unsigned>
parseCount(const char *text, char **end)
{
    if (std::isdigit(static_cast<unsigned char>(*text)) == 0)
        return std::nullopt;
    errno = 0;
    const unsigned long value = std::strtoul(text, end, 10);
    if (errno == ERANGE || value > std::numeric_limits<unsigned>::max())
        return std::nullopt;
    return static_cast<unsigned>(value);
}

/** Digit-led, finite, strictly positive double (a latency or a rate). */
std::optional<double>
parsePositive(const char *text, char **end)
{
    if (std::isdigit(static_cast<unsigned char>(*text)) == 0)
        return std::nullopt;
    const double value = std::strtod(text, end);
    if (!std::isfinite(value) || value <= 0.0)
        return std::nullopt;
    return value;
}

} // namespace

std::optional<TopologySpec>
TopologySpec::parse(const std::string &text)
{
    char *end = nullptr;
    const std::optional<unsigned> channels = parseCount(text.c_str(), &end);
    if (!channels.has_value())
        return std::nullopt;
    std::optional<unsigned> dimms = 1;
    if (*end == 'x' || *end == 'X')
        dimms = parseCount(end + 1, &end);
    if (!dimms.has_value() || *end != '\0' || *channels == 0 || *dimms == 0)
        return std::nullopt;
    TopologySpec spec;
    spec.channels = *channels;
    spec.dimms_per_channel = *dimms;
    return spec;
}

std::optional<TopologySpec>
TopologySpec::parseCxl(const std::string &text, const TopologySpec &base)
{
    // Grammar: "N[@ns[@gbps]]" — strictly digit-led fields like the
    // topology grammar; latency/rate parse as doubles.
    char *end = nullptr;
    const std::optional<unsigned> count = parseCount(text.c_str(), &end);
    if (!count.has_value())
        return std::nullopt;
    TopologySpec spec = base;
    spec.cxl_channels = *count;
    if (*end == '@') {
        const std::optional<double> ns = parsePositive(end + 1, &end);
        if (!ns.has_value())
            return std::nullopt;
        spec.cxl_link.round_trip_ns = *ns;
    }
    if (*end == '@') {
        const std::optional<double> gbps = parsePositive(end + 1, &end);
        if (!gbps.has_value())
            return std::nullopt;
        spec.cxl_link.gbps = *gbps;
    }
    if (*end != '\0')
        return std::nullopt;
    return spec;
}

TopologySpec
TopologySpec::fromEnv(const TopologySpec &fallback)
{
    TopologySpec spec = fallback;
    const char *text = std::getenv("SD_TOPOLOGY");
    if (text != nullptr && *text != '\0') {
        std::optional<TopologySpec> parsed = parse(text);
        if (!parsed.has_value())
            SD_FATAL("bad SD_TOPOLOGY \"%s\" (want e.g. \"2x2\")", text);
        spec.channels = parsed->channels;
        spec.dimms_per_channel = parsed->dimms_per_channel;
    }
    const char *cxl = std::getenv("SD_CXL");
    if (cxl != nullptr && *cxl != '\0') {
        std::optional<TopologySpec> parsed = parseCxl(cxl, spec);
        if (!parsed.has_value())
            SD_FATAL("bad SD_CXL \"%s\" (want e.g. \"1@600@32\")", cxl);
        spec = *parsed;
    }
    return spec;
}

namespace {

mem::DramGeometry
finalizeGeometry(const TopologySpec &spec)
{
    mem::DramGeometry g = spec.geometry;
    // Far (CXL) channels sit after the local ones in the flat channel
    // index space; the AddressMap needs no far-awareness because its
    // layout already gives every channel a contiguous window — the
    // CxlLink delays completions, not addressing.
    g.channels = spec.totalChannels();
    g.dimms_per_channel = spec.dimms_per_channel;
    return g;
}

} // namespace

Topology::Topology(const TopologySpec &spec)
    : spec_(spec), geometry_(finalizeGeometry(spec)), map_(geometry_)
{
    SD_ASSERT(geometry_.channels >= 1, "need at least one channel");
    SD_ASSERT(geometry_.dimms_per_channel >= 1, "need at least one DIMM");
    // Every per-device structure (MMIO window, driver heap) must fit
    // inside the device's contiguous address window.
    SD_ASSERT(spec_.device.mmio_base + spec_.device.mmio_bytes <=
                  geometry_.dimmBytes(),
              "MMIO window exceeds the per-DIMM capacity slice");
    SD_ASSERT(spec_.driver_base + spec_.driver_bytes <=
                  spec_.device.mmio_base,
              "driver heap would overlap the MMIO window");

    const unsigned channels = geometry_.channels;
    const unsigned dimms = geometry_.dimms_per_channel;
    const bool tagged = channels * dimms > 1;

    // Devices first: the mux and the memory system hold pointers into
    // devices_ (a deque, so references stay stable as slots append).
    std::vector<mem::DimmDevice *> channel_devices;
    channel_devices.reserve(channels);
    for (unsigned ch = 0; ch < channels; ++ch) {
        std::vector<mem::DimmDevice *> dimm_slots;
        for (unsigned d = 0; d < dimms; ++d) {
            smartdimm::SmartDimmConfig config = spec_.device;
            config.mmio_base = slotBase(ch, d) + spec_.device.mmio_base;
            smartdimm::BufferDevice &device =
                devices_.emplace_back(events_, map_, store_, config);
            device.setFaultScope(
                {static_cast<int>(ch), static_cast<int>(d)});
            dimm_slots.push_back(&device);
        }
        if (dimms > 1)
            channel_devices.push_back(&muxes_.emplace_back(dimm_slots));
        else
            channel_devices.push_back(dimm_slots.front());
    }

    // One map for every decoder: the channel controllers (through the
    // memory system) and each device's Addr Remap block.
    memory_ = std::make_unique<cache::MemorySystem>(
        events_, map_, spec_.llc, channel_devices, spec_.timing,
        spec_.controller, spec_.latencies);

    // One CXL link per far channel: every DRAM-side access on that
    // channel defers its completion through the link's flit queue.
    for (unsigned ch = spec_.channels; ch < channels; ++ch) {
        mem::CxlLink &link =
            links_.emplace_back(events_, spec_.cxl_link);
        link.setFaultScope({static_cast<int>(ch), -1});
        memory_->attachCxlLink(ch, &link);
    }

    for (unsigned ch = 0; ch < channels; ++ch) {
        for (unsigned d = 0; d < dimms; ++d) {
            const Addr base = slotBase(ch, d);
            Slot &slot = slots_.emplace_back(
                ch, d, base, devices_[slotIndex(ch, d)], *memory_,
                base + spec_.driver_base, spec_.driver_bytes);
            slot.engine.setFaultScope(
                {static_cast<int>(ch), static_cast<int>(d)});
            if (tagged)
                slot.engine.setSpanTag("ch" + std::to_string(ch) + ".d" +
                                       std::to_string(d));
        }
    }
}

void
Topology::setFaultPlan(fault::FaultPlan *plan)
{
    memory_->setFaultPlan(plan);
    for (smartdimm::BufferDevice &device : devices_)
        device.setFaultPlan(plan);
    for (Slot &slot : slots_)
        slot.engine.setFaultPlan(plan);
    for (mem::CxlLink &link : links_)
        link.setFaultPlan(plan);
}

void
Topology::registerStats(trace::StatsRegistry &registry) const
{
    memory_->registerStats(registry);
    const bool tagged = slotCount() > 1;
    for (const Slot &slot : slots_) {
        const std::string suffix =
            tagged ? ".ch" + std::to_string(slot.channel) + ".d" +
                         std::to_string(slot.dimm)
                   : std::string();
        const smartdimm::BufferDevice &device = slot.device;
        registry.add("smartdimm" + suffix,
                     [&device](trace::StatsBlock &block) {
                         device.reportStats(block);
                     });
        const compcpy::CompCpyEngine &engine = slot.engine;
        registry.add("compcpy" + suffix,
                     [&engine](trace::StatsBlock &block) {
                         engine.reportStats(block);
                     });
    }
    for (unsigned i = 0; i < links_.size(); ++i) {
        const mem::CxlLink &link = links_[i];
        registry.add("cxl.ch" + std::to_string(spec_.channels + i),
                     [&link](trace::StatsBlock &block) {
                         link.reportStats(block);
                     });
    }
}

} // namespace sd::topo
