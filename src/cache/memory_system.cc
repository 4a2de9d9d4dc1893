#include "cache/memory_system.h"

#include <cstring>

#include "common/log.h"
#include "mem/cxl_link.h"

namespace sd::cache {

MemorySystem::MemorySystem(EventQueue &events, const mem::AddressMap &map,
                           const CacheConfig &cache_config,
                           std::vector<mem::DimmDevice *> devices,
                           const mem::DramTiming &timing,
                           const mem::ControllerConfig &mc_config,
                           const HostLatencies &latencies)
    : events_(events), map_(map), llc_(cache_config), latencies_(latencies)
{
    const unsigned channels = map.geometry().channels;
    SD_ASSERT(devices.size() == channels,
              "need exactly one device per channel");
    for (unsigned ch = 0; ch < channels; ++ch)
        controllers_.push_back(std::make_unique<mem::MemoryController>(
            events_, map_, timing, mc_config, ch, *devices[ch]));
    links_.resize(channels, nullptr);
}

void
MemorySystem::attachCxlLink(unsigned channel, mem::CxlLink *link)
{
    SD_ASSERT(channel < links_.size(), "channel out of range");
    links_[channel] = link;
}

mem::CxlLink *
MemorySystem::cxlLink(unsigned channel) const
{
    SD_ASSERT(channel < links_.size(), "channel out of range");
    return links_[channel];
}

mem::MemCallback
MemorySystem::linked(Addr addr, mem::MemCallback cb)
{
    mem::CxlLink *link = links_[map_.decompose(addr).channel];
    if (!link)
        return cb;
    // The DRAM-side completion rides home over the CXL link: the flit
    // serializes on the shared wire and the response arrives a round
    // trip later. LLC hits never reach here.
    return [link, cb = std::move(cb)](Tick,
                                      mem::MemStatus status) mutable {
        link->transfer(kCacheLineSize,
                       [cb = std::move(cb), status](Tick at) mutable {
                           cb(at, status);
                       });
    };
}

mem::MemoryController &
MemorySystem::controller(unsigned channel)
{
    SD_ASSERT(channel < controllers_.size(), "channel out of range");
    return *controllers_[channel];
}

mem::MemoryController &
MemorySystem::route(Addr addr)
{
    return *controllers_[map_.decompose(addr).channel];
}

void
MemorySystem::setFaultPlan(fault::FaultPlan *plan)
{
    for (auto &mc : controllers_)
        mc->setFaultPlan(plan);
}

std::uint64_t
MemorySystem::dramBytes() const
{
    std::uint64_t total = 0;
    for (const auto &mc : controllers_)
        total += mc->stats().bytesMoved();
    return total;
}

void
MemorySystem::registerStats(trace::StatsRegistry &registry,
                            const std::string &prefix) const
{
    registry.add(prefix + "llc", [this](trace::StatsBlock &block) {
        const CacheStats &cs = llc_.stats();
        block.scalar("hits", static_cast<double>(cs.hits));
        block.scalar("misses", static_cast<double>(cs.misses));
        block.scalar("miss_rate", cs.missRate());
        block.scalar("writebacks", static_cast<double>(cs.writebacks));
        block.scalar("fills", static_cast<double>(cs.fills));
        block.scalar("flushes", static_cast<double>(cs.flushes));
        block.scalar("flush_dirty",
                     static_cast<double>(cs.flush_dirty));
    });
    for (std::size_t ch = 0; ch < controllers_.size(); ++ch) {
        const mem::MemoryController *mc = controllers_[ch].get();
        registry.add(prefix + "mc.ch" + std::to_string(ch),
                     [mc](trace::StatsBlock &block) {
                         mc->reportStats(block);
                     });
    }
}

void
MemorySystem::writebackVictim(const AccessResult &result)
{
    if (result.writeback)
        route(*result.writeback)
            .enqueueWrite(*result.writeback, result.writeback_data);
}

void
MemorySystem::readLine(Addr addr, std::uint8_t *dst, Callback cb)
{
    const Addr line = lineAlign(addr);
    const auto result = llc_.access(line, false, AllocClass::kCpu);
    if (result.hit) {
        std::memcpy(dst, result.data, kCacheLineSize);
        events_.scheduleIn(latencies_.llc_hit, [this, cb = std::move(cb)]()
                               mutable { cb(events_.now()); });
        return;
    }
    writebackVictim(result);
    // Fetch from DRAM; install into the already-allocated line, then
    // hand the bytes to the caller. The fill buffer rides inside the
    // (move-only) completion callback.
    auto fill = std::make_unique<std::array<std::uint8_t, kCacheLineSize>>();
    std::uint8_t *fill_data = fill->data();
    route(line).enqueueRead(
        line, fill_data,
        linked(line,
               track([line, dst, fill = std::move(fill),
                      cb = std::move(cb), this](Tick at) mutable {
            if (std::uint8_t *slot = llc_.dataPtr(line))
                std::memcpy(slot, fill->data(), kCacheLineSize);
            std::memcpy(dst, fill->data(), kCacheLineSize);
            cb(at);
        })));
}

void
MemorySystem::writeLine(Addr addr, const std::uint8_t *src, Callback cb)
{
    const Addr line = lineAlign(addr);
    const auto result =
        llc_.access(line, true, AllocClass::kCpu, /*full_line_store=*/true);
    writebackVictim(result);
    std::memcpy(result.data, src, kCacheLineSize);
    events_.scheduleIn(latencies_.store_commit, [this, cb = std::move(cb)]()
                           mutable { cb(events_.now()); });
}

void
MemorySystem::flushLine(Addr addr, Callback cb)
{
    const Addr line = lineAlign(addr);
    const auto result = llc_.flush(line);
    if (result.dirty) {
        route(line).enqueueWrite(line, result.data.data(),
                                 linked(line, track(std::move(cb))));
        return;
    }
    events_.scheduleIn(latencies_.flush_clean, [this, cb = std::move(cb)]()
                           mutable { cb(events_.now()); });
}

void
MemorySystem::mmioWrite(Addr addr, const std::uint8_t *src, Callback cb)
{
    route(addr).enqueueWrite(lineAlign(addr), src,
                             linked(addr, track(std::move(cb))));
}

void
MemorySystem::mmioRead(Addr addr, std::uint8_t *dst, Callback cb)
{
    route(addr).enqueueRead(lineAlign(addr), dst,
                            linked(addr, track(std::move(cb))));
}

void
MemorySystem::dmaWriteLine(Addr addr, const std::uint8_t *src, Callback cb)
{
    // DDIO: the device write allocates into the restricted LLC ways;
    // under contention the line may be evicted to DRAM before use.
    const Addr line = lineAlign(addr);
    const auto result =
        llc_.access(line, true, AllocClass::kDdio, /*full_line_store=*/true);
    writebackVictim(result);
    std::memcpy(result.data, src, kCacheLineSize);
    events_.scheduleIn(latencies_.store_commit, [this, cb = std::move(cb)]()
                           mutable { cb(events_.now()); });
}

void
MemorySystem::dmaReadLine(Addr addr, std::uint8_t *dst, Callback cb)
{
    // Device reads snoop the LLC (hit: serve from cache) and otherwise
    // fetch from DRAM without allocating.
    const Addr line = lineAlign(addr);
    if (const std::uint8_t *slot = llc_.dataPtr(line)) {
        std::memcpy(dst, slot, kCacheLineSize);
        events_.scheduleIn(latencies_.llc_hit, [this, cb = std::move(cb)]()
                               mutable { cb(events_.now()); });
        return;
    }
    route(line).enqueueRead(line, dst, linked(line, track(std::move(cb))));
}

void
MemorySystem::drain()
{
    events_.run();
}

void
MemorySystem::readSync(Addr addr, std::uint8_t *dst, std::size_t len)
{
    SD_ASSERT(isLineAligned(addr) && len % kCacheLineSize == 0,
              "sync ops are line-granular");
    for (std::size_t off = 0; off < len; off += kCacheLineSize) {
        bool done = false;
        readLine(addr + off, dst + off, [&done](Tick) { done = true; });
        while (!done)
            events_.run();
    }
}

void
MemorySystem::writeSync(Addr addr, const std::uint8_t *src, std::size_t len)
{
    SD_ASSERT(isLineAligned(addr) && len % kCacheLineSize == 0,
              "sync ops are line-granular");
    for (std::size_t off = 0; off < len; off += kCacheLineSize) {
        bool done = false;
        writeLine(addr + off, src + off, [&done](Tick) { done = true; });
        while (!done)
            events_.run();
    }
}

void
MemorySystem::flushSync(Addr addr, std::size_t len)
{
    for (Addr line = lineAlign(addr); line < addr + len;
         line += kCacheLineSize) {
        bool done = false;
        flushLine(line, [&done](Tick) { done = true; });
        while (!done)
            events_.run();
    }
}

} // namespace sd::cache
