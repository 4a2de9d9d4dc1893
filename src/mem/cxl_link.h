/**
 * @file
 * CXL.mem far-memory link model. A CxlLink sits between the LLC and a
 * far channel's memory controller and charges every DRAM-side access
 * the link's round-trip flight time plus payload serialization at the
 * configured line rate. Flits serialize in FIFO order on one shared
 * link, so back-to-back transfers queue behind each other. The link
 * only computes arrival ticks; the caller schedules the delivery on
 * the pool-backed EventQueue with its own (inline) continuation.
 *
 * The link is also a fault-injection point: kCxlLinkStall adds a
 * configurable retry penalty to one transfer (a CRC retry episode on
 * the flex-bus), counted separately from ordinary queueing so the
 * chaos soak can check conservation.
 */

#ifndef SD_MEM_CXL_LINK_H
#define SD_MEM_CXL_LINK_H

#include <cstddef>
#include <cstdint>

#include "common/cxl_defaults.h"
#include "common/types.h"
#include "fault/fault.h"
#include "sim/event_queue.h"
#include "trace/trace.h"

namespace sd::mem {

/** Link timing knobs (defaults: mid-range CXL 2.0 switch hop). */
struct CxlLinkConfig
{
    double round_trip_ns = kCxlRoundTripNs; ///< request + response flight
    double gbps = kCxlLinkGbps;             ///< payload serialization rate
    double stall_ns = 250.0; ///< injected CRC-retry episode penalty
};

/**
 * One CXL.mem link: all traffic to one far channel serializes here.
 * Single-owner like every simulation component — only event-queue
 * callbacks touch it.
 */
class CxlLink
{
  public:
    struct Stats
    {
        std::uint64_t transfers = 0;
        std::uint64_t bytes = 0;
        std::uint64_t queued = 0; ///< transfers that waited for the wire
        std::uint64_t injected_stalls = 0;
        Tick busy_ticks = 0;  ///< wire occupancy (serialization)
        Tick queue_ticks = 0; ///< time spent waiting behind earlier flits
    };

    CxlLink(EventQueue &events, const CxlLinkConfig &config);

    /**
     * Ship @p bytes across the link. @return the tick the response
     * lands (round trip + serialization + any queueing/stall delay);
     * the caller schedules its own delivery event there. Returned
     * ticks strictly increase across calls: the wire's free time only
     * grows and the round trip is constant, so deliveries stay FIFO.
     */
    Tick transfer(std::size_t bytes);

    /** Round-trip flight time in ticks (no payload, no queueing). */
    Tick roundTripTicks() const { return round_trip_ticks_; }

    void setFaultPlan(fault::FaultPlan *plan) { fault_plan_ = plan; }
    void
    setFaultScope(const fault::FaultScope &scope)
    {
        fault_scope_ = scope;
    }

    const Stats &stats() const { return stats_; }
    void reportStats(trace::StatsBlock &block) const;

  private:
    EventQueue &events_;
    CxlLinkConfig config_;
    Tick round_trip_ticks_ = 0;
    Tick stall_ticks_ = 0;
    Tick free_at_ = 0; ///< when the wire finishes the last queued flit
    Stats stats_;
    fault::FaultPlan *fault_plan_ = nullptr;
    fault::FaultScope fault_scope_;
};

} // namespace sd::mem

#endif // SD_MEM_CXL_LINK_H
