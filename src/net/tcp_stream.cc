#include "net/tcp_stream.h"

#include <algorithm>

#include "common/log.h"

namespace sd::net {

namespace {

constexpr double kRttUs = 50.0;         ///< propagation + switching RTT
constexpr std::size_t kInitCwnd = 10;   ///< segments
constexpr std::size_t kMaxCwnd = 1024;  ///< receive-window clamp (segments)
constexpr double kRtoMs = 4.0;          ///< retransmission timeout

} // namespace

TcpTransferResult
tcpTransfer(std::size_t bytes, const LossConfig &loss, std::uint64_t seed,
            fault::FaultPlan *fault_plan)
{
    SD_ASSERT(bytes > 0, "empty transfer");
    LossInjector injector(loss, seed);
    injector.setFaultPlan(fault_plan);

    TcpTransferResult result;
    const double rtt_s = kRttUs * 1e-6;
    const double link_segs_per_rtt =
        kLinkGbps * 1e9 / 8.0 / static_cast<double>(kTcpMss) * rtt_s;

    std::size_t remaining = divCeil(bytes, kTcpMss);
    double cwnd = static_cast<double>(kInitCwnd);
    double ssthresh = static_cast<double>(kMaxCwnd);
    double time_s = 0.0;

    while (remaining > 0) {
        // Segments attempted this round: window, link and data bound.
        const std::size_t window = static_cast<std::size_t>(std::min(
            {cwnd, static_cast<double>(kMaxCwnd),
             link_segs_per_rtt}));
        const std::size_t attempt =
            std::min<std::size_t>(std::max<std::size_t>(window, 1),
                                  remaining);

        std::size_t delivered = 0;
        std::size_t lost = 0;
        bool reordered = false;
        for (std::size_t s = 0; s < attempt; ++s) {
            if (injector.shouldDrop())
                ++lost;
            else
                ++delivered;
            reordered |= injector.shouldReorder();
        }
        result.segments_sent += attempt;
        if (reordered)
            ++result.reorder_events;

        // Serialisation + propagation for the round.
        const double serialize_s = static_cast<double>(attempt) *
                                   static_cast<double>(kTcpMss) * 8.0 /
                                   (kLinkGbps * 1e9);
        time_s += std::max(rtt_s, serialize_s);

        remaining -= std::min(delivered, remaining);

        if (lost == 0) {
            // Congestion avoidance / slow start growth.
            if (cwnd < ssthresh)
                cwnd = std::min(cwnd * 2.0, ssthresh);
            else
                cwnd += 1.0;
            cwnd = std::min(cwnd, static_cast<double>(kMaxCwnd));
            continue;
        }

        // Loss recovery: if anything was delivered, dup ACKs trigger
        // fast retransmit; a whole-window loss costs an RTO.
        result.retransmits += lost;
        if (delivered >= 3) {
            ++result.fast_recoveries;
            ssthresh = std::max(cwnd / 2.0, 2.0);
            cwnd = ssthresh;
            time_s += rtt_s; // retransmission round
        } else {
            ++result.timeouts;
            ssthresh = std::max(cwnd / 2.0, 2.0);
            cwnd = static_cast<double>(kInitCwnd);
            time_s += kRtoMs * 1e-3;
        }
    }

    result.seconds = time_s;
    result.goodput_gbps =
        static_cast<double>(bytes) * 8.0 / time_s / 1e9;
    return result;
}

} // namespace sd::net
