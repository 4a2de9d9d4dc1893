/**
 * @file
 * Fig. 2: achievable bandwidth over an encrypted connection for CPU
 * vs SmartNIC TLS offload under injected packet drops. The SmartNIC's
 * autonomous offload matches (or trails) the CPU at zero loss and
 * collapses as drops trigger driver resynchronisation + software
 * fallback crypto.
 */

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "crypto/tls_record.h"
#include "net/tcp_stream.h"
#include "offload/placement.h"

using namespace sd;

namespace {

/** Encrypted-stream goodput for one placement at a drop rate. */
double
goodputGbps(offload::PlacementKind placement, double drop_prob)
{
    // A long HTTPS transfer over one connection: the segment-level
    // TCP model gives the transport-layer goodput ceiling and the
    // loss-recovery episode count; the placement model turns recovery
    // episodes into CPU-side resync costs that throttle the sender.
    constexpr std::size_t kTransfer = 64ull << 20; // 64 MB stream
    net::LossConfig loss;
    loss.drop_prob = drop_prob;
    const auto xfer = net::tcpTransfer(kTransfer, loss, 42);

    // Messages of one TLS record (16 KB) stream over the connection.
    const std::size_t record = crypto::kTlsMaxFragment;
    const double messages =
        static_cast<double>(kTransfer) / static_cast<double>(record);
    const double loss_events_per_message =
        static_cast<double>(xfer.resyncEvents()) / messages;

    offload::LoadContext ctx;
    ctx.leak_fraction = 0.2; // one streaming connection: mild thrash
    ctx.loss_events_per_message =
        placement == offload::PlacementKind::kSmartNic
            ? loss_events_per_message
            : 0.0; // CPU crypto is oblivious to losses
    offload::CostModel model;
    const auto cost = offload::messageCost(
        placement, offload::Ulp::kTlsEncrypt, record, ctx, model);

    // Single-core sender: crypto/bookkeeping cycles cap the rate.
    const double cycles_per_record =
        cost.cpu_cycles + 4000; // socket + sendmsg path
    const double records_per_sec =
        model.cpu.freq_ghz * 1e9 / cycles_per_record;
    const double cpu_gbps = records_per_sec * record * 8.0 / 1e9;

    // Autonomous-offload resynchronisation additionally *pauses* the
    // inline engine: until the driver rebuilds the NIC's record state
    // the connection runs in software fallback (Pismenny et al.).
    double transport_gbps = xfer.goodput_gbps;
    if (placement == offload::PlacementKind::kSmartNic) {
        constexpr double kResyncStallSec = 250e-6;
        const double stalled =
            static_cast<double>(xfer.resyncEvents()) * kResyncStallSec;
        const double stall_frac =
            std::min(0.9, stalled / (xfer.seconds + stalled));
        transport_gbps *= 1.0 - stall_frac;
    }
    return std::min(transport_gbps, cpu_gbps);
}

} // namespace

int
main()
{
    bench::header("Figure 2",
                  "encrypted-connection bandwidth vs packet drop rate");
    std::printf("%-12s %14s %14s %10s\n", "drop_rate", "CPU_Gbps",
                "SmartNIC_Gbps", "NIC/CPU");
    const double drops[] = {0.0,    0.0001, 0.0005, 0.001,
                            0.0025, 0.005,  0.01};
    for (double drop : drops) {
        const double cpu = goodputGbps(offload::PlacementKind::kCpu, drop);
        const double nic =
            goodputGbps(offload::PlacementKind::kSmartNic, drop);
        std::printf("%-12g %14.2f %14.2f %10.2f\n", drop, cpu, nic,
                    nic / cpu);
    }
    std::printf("\nPaper shape: SmartNIC <= CPU at zero loss (AES-NI is\n"
                "fast); SmartNIC degrades steeply once drops appear.\n");
    return 0;
}
