#include "cache/memory_system.h"

#include <cstring>

#include "common/log.h"
#include "mem/cxl_link.h"

namespace sd::cache {

MemorySystem::MemorySystem(EventQueue &events, const mem::AddressMap &map,
                           const CacheConfig &cache_config,
                           std::vector<mem::DimmDevice *> devices)
    : events_(events), map_(map), llc_(cache_config)
{
    const unsigned channels = map.geometry().channels;
    SD_ASSERT(devices.size() == channels,
              "need exactly one device per channel");
    for (unsigned ch = 0; ch < channels; ++ch)
        controllers_.push_back(std::make_unique<mem::MemoryController>(
            events_, map_, ch, *devices[ch]));
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

std::uint32_t
MemorySystem::park(Callback cb)
{
    const std::uint32_t slot = ops_.alloc();
    HostOp &op = ops_[slot];
    op.cb = std::move(cb);
    op.fill = nullptr;
    return slot;
}

void
MemorySystem::finishIn(Tick delay, std::uint32_t slot)
{
    // A positive delay puts `at` past now(), so a batch whose event has
    // run (at <= now()) never matches: only pending batches take joins.
    SD_ASSERT(delay > 0, "fixed completion latency must be positive");
    const Tick at = events_.now() + delay;
    ops_[slot].next = kNoOp;
    if (at == batch_.at && events_.scheduleToken() == batch_.token) {
        ops_[batch_.tail].next = slot;
        batch_.tail = slot;
        return;
    }
    events_.schedule(at, [this, slot] { finishBatch(slot); });
    batch_ = Batch{at, events_.scheduleToken(), slot};
}

void
MemorySystem::finishBatch(std::uint32_t slot)
{
    // Every event in the simulator runs at the default priority, so an
    // event a member's callback schedules on this tick sorts after the
    // members that were already pending: running them back to back
    // here keeps the exact (tick, priority, seq) order.
    const Tick at = events_.now();
    in_batch_ = true;
    while (slot != kNoOp) {
        const std::uint32_t next = ops_[slot].next;
        finish(slot, at, mem::MemStatus::kOk);
        slot = next;
    }
    in_batch_ = false;
}

mem::MemCallback
MemorySystem::dramDone(Addr addr, std::uint32_t slot)
{
    mem::CxlLink *link = links_[map_.decompose(addr).channel];
    if (!link)
        return [this, slot](Tick at, mem::MemStatus status) {
            finish(slot, at, status);
        };
    // The DRAM-side completion rides home over the CXL link: the flit
    // serializes on the shared wire and the response arrives a round
    // trip later. LLC hits never reach here.
    return [this, link, slot](Tick, mem::MemStatus status) {
        const Tick at = link->transfer(kCacheLineSize);
        events_.schedule(at, [this, slot, status, at] {
            finish(slot, at, status);
        });
    };
}

void
MemorySystem::finish(std::uint32_t slot, Tick at, mem::MemStatus status)
{
    if (status == mem::MemStatus::kDegraded)
        ++degraded_reads_;
    HostOp &op = ops_[slot];
    if (op.fill) {
        if (std::uint8_t *cached = llc_.dataPtr(op.line))
            std::memcpy(cached, op.fill, kCacheLineSize);
    }
    Callback cb = std::move(op.cb);
    ops_.free(slot);
    cb(at);
}

void
MemorySystem::readLine(Addr addr, std::uint8_t *dst, Callback cb)
{
    const Addr line = lineAlign(addr);
    const auto result = llc_.access(line, false, AllocClass::kCpu);
    if (result.hit) {
        std::memcpy(dst, result.data, kCacheLineSize);
        finishIn(kLlcHitLatency, park(std::move(cb)));
        return;
    }
    writebackVictim(result);
    // Fetch from DRAM into the caller's buffer, zeroed first so a
    // degraded read that returns no data reads as zeros; finish()
    // installs the bytes into the already-allocated line.
    std::memset(dst, 0, kCacheLineSize);
    const std::uint32_t slot = park(std::move(cb));
    ops_[slot].fill = dst;
    ops_[slot].line = line;
    route(line).enqueueRead(line, dst, dramDone(line, slot));
}

void
MemorySystem::writeLine(Addr addr, const std::uint8_t *src, Callback cb)
{
    const Addr line = lineAlign(addr);
    const auto result =
        llc_.access(line, true, AllocClass::kCpu, /*full_line_store=*/true);
    writebackVictim(result);
    std::memcpy(result.data, src, kCacheLineSize);
    finishIn(kStoreCommitLatency, park(std::move(cb)));
}

void
MemorySystem::flushLine(Addr addr, Callback cb)
{
    const Addr line = lineAlign(addr);
    const auto result = llc_.flush(line);
    const std::uint32_t slot = park(std::move(cb));
    if (result.dirty) {
        route(line).enqueueWrite(line, result.data.data(),
                                 dramDone(line, slot));
        return;
    }
    finishIn(kFlushCleanLatency, slot);
}

void
MemorySystem::mmioWrite(Addr addr, const std::uint8_t *src, Callback cb)
{
    route(addr).enqueueWrite(lineAlign(addr), src,
                             dramDone(addr, park(std::move(cb))));
}

void
MemorySystem::mmioRead(Addr addr, std::uint8_t *dst, Callback cb)
{
    route(addr).enqueueRead(lineAlign(addr), dst,
                            dramDone(addr, park(std::move(cb))));
}

void
MemorySystem::readSync(Addr addr, std::uint8_t *dst, std::size_t len)
{
    SD_ASSERT(!in_batch_, "a batched completion drives the event loop");
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
    SD_ASSERT(!in_batch_, "a batched completion drives the event loop");
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
    SD_ASSERT(!in_batch_, "a batched completion drives the event loop");
    for (Addr line = lineAlign(addr); line < addr + len;
         line += kCacheLineSize) {
        bool done = false;
        flushLine(line, [&done](Tick) { done = true; });
        while (!done)
            events_.run();
    }
}

} // namespace sd::cache
