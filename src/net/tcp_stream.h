/**
 * @file
 * Segment-level TCP sender model: sliding window, fast retransmit on
 * triple duplicate ACKs, RTO fallback, and a NewReno-flavoured cwnd.
 * Used to measure achievable goodput over lossy links (Fig. 2) and to
 * count the loss-recovery episodes that trigger SmartNIC
 * resynchronisation (Obs. 1 / Pismenny-style autonomous offload).
 */

#ifndef SD_NET_TCP_STREAM_H
#define SD_NET_TCP_STREAM_H

#include <cstdint>

#include "common/types.h"
#include "net/loss_model.h"

namespace sd::net {

/** TCP payload bytes per segment on a 1500-byte-MTU Ethernet link
 *  (IPv4 + TCP with timestamps). */
inline constexpr std::size_t kTcpMss = 1448;

/** Bottleneck link rate, Gb/s: the server's 100 GbE NIC. */
inline constexpr double kLinkGbps = 100.0;

/** Result of one bulk transfer. */
struct TcpTransferResult
{
    double seconds = 0.0;       ///< transfer completion time
    double goodput_gbps = 0.0;  ///< application bytes / time
    std::uint64_t segments_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t fast_recoveries = 0; ///< dup-ACK episodes
    std::uint64_t timeouts = 0;        ///< RTO episodes
    std::uint64_t reorder_events = 0;

    /** Episodes that force SmartNIC driver resync (Obs. 1). */
    std::uint64_t
    resyncEvents() const
    {
        return fast_recoveries + timeouts + reorder_events;
    }
};

/**
 * Simulate a one-directional bulk transfer of @p bytes through a
 * lossy link. Runs a compact round-based simulation: each RTT, the
 * window's segments are subjected to the injector; losses halve the
 * window (fast recovery) or collapse it (timeout when the whole
 * window was lost).
 */
TcpTransferResult tcpTransfer(std::size_t bytes, const LossConfig &loss,
                              std::uint64_t seed = 1,
                              fault::FaultPlan *fault_plan = nullptr);

} // namespace sd::net

#endif // SD_NET_TCP_STREAM_H
