#include "mem/cxl_link.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace sd::mem {

namespace {

/** ns -> ticks (the event queue runs in picoseconds). */
Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(std::llround(ns * 1000.0));
}

} // namespace

CxlLink::CxlLink(EventQueue &events, const CxlLinkConfig &config)
    : events_(events), config_(config)
{
    SD_ASSERT(config_.round_trip_ns > 0.0,
              "CXL round trip must be positive");
    SD_ASSERT(config_.gbps > 0.0, "CXL link rate must be positive");
    round_trip_ticks_ = nsToTicks(config_.round_trip_ns);
    stall_ticks_ = nsToTicks(config_.stall_ns);
}

Tick
CxlLink::transfer(std::size_t bytes)
{
    const Tick now = events_.now();
    // One byte takes 1000/gbps ps at `gbps` GB/s; a zero-byte control
    // message still occupies one flit slot.
    const Tick ser = std::max<Tick>(
        1, static_cast<Tick>(std::llround(
               static_cast<double>(bytes) * 1000.0 / config_.gbps)));

    Tick start = std::max(now, free_at_);
    if (start > now) {
        ++stats_.queued;
        stats_.queue_ticks += start - now;
    }
    if (fault_plan_ &&
        fault_plan_->armed(fault::Site::kCxlLinkStall) &&
        fault_plan_->shouldInject(fault::Site::kCxlLinkStall,
                                  fault_scope_)) {
        // CRC retry episode: the flit replays after a fixed penalty.
        ++stats_.injected_stalls;
        start += stall_ticks_;
    }
    free_at_ = start + ser;
    ++stats_.transfers;
    stats_.bytes += bytes;
    stats_.busy_ticks += ser;

    return free_at_ + round_trip_ticks_;
}

void
CxlLink::reportStats(trace::StatsBlock &block) const
{
    block.scalar("transfers", static_cast<double>(stats_.transfers));
    block.scalar("bytes", static_cast<double>(stats_.bytes));
    block.scalar("queued", static_cast<double>(stats_.queued));
    block.scalar("injected_stalls",
                 static_cast<double>(stats_.injected_stalls));
    block.scalar("busy_ticks", static_cast<double>(stats_.busy_ticks));
    block.scalar("queue_ticks",
                 static_cast<double>(stats_.queue_ticks));
}

} // namespace sd::mem
