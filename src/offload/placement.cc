#include "offload/placement.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/types.h"
#include "crypto/tls_record.h"
#include "net/tcp_stream.h"

namespace sd::offload {

namespace {

/** TLS records per message. */
double
records(std::size_t bytes)
{
    return static_cast<double>(divCeil(bytes, crypto::kTlsMaxFragment));
}

double
pages(std::size_t bytes)
{
    return static_cast<double>(divCeil(bytes, kPageSize));
}

double
lines(std::size_t bytes)
{
    return static_cast<double>(divCeil(bytes, kCacheLineSize));
}

/** Stall cycles for @p traffic bytes of demand misses. The exposure
 *  factor reflects memory-level parallelism: longer streams give the
 *  prefetchers more run-up, hiding a larger share of each miss. */
double
missStalls(double traffic_bytes, double miss_cycles,
           std::size_t message_bytes)
{
    const double exposure = std::clamp(
        0.16 * std::pow(4096.0 / static_cast<double>(message_bytes),
                        0.3),
        0.08, 0.20);
    return traffic_bytes / kCacheLineSize * miss_cycles * exposure;
}

/** Demand-miss penalty including the far-memory tax: a page homed in
 *  CXL memory adds the link round trip to every host-side miss. */
double
missCycles(const CostModel &m, const LoadContext &ctx)
{
    return m.cpu.dram_miss_cycles +
           ctx.far_mem_extra_ns * m.cpu.freq_ghz;
}

/** CPU placement: everything on-core (AES-NI / software deflate). */
UlpCost
cpuCost(Ulp ulp, std::size_t bytes, const LoadContext &ctx,
        const CostModel &m)
{
    UlpCost cost;
    const double b = static_cast<double>(bytes);
    if (ulp == Ulp::kNone)
        return cost;

    double compute = 0;
    double traffic = 0;
    if (ulp == Ulp::kTlsEncrypt) {
        compute = b * m.cpu.aesni_cycles_per_byte +
                  records(bytes) * m.cpu.tls_record_cycles;
        // Obs. 3: at contention the transform's streams round-trip
        // DRAM — plaintext re-read, destination RFO + writeback,
        // NIC fetch of the ciphertext, and evicted re-reads:
        // ~5 line passes scaled by the leak fraction.
        traffic = b * 7.0 * ctx.leak_fraction;
    } else {
        compute = b * m.cpu.deflate_cycles_per_byte +
                  pages(bytes) * m.cpu.deflate_setup_cycles;
        // Deflate additionally churns its window + hash tables:
        // a few random accesses per input byte, all missing under
        // contention (the dominant term of Fig. 12's bandwidth).
        traffic = b * 25.0 * ctx.leak_fraction;
    }

    const double stalls =
        missStalls(traffic, missCycles(m, ctx), bytes);

    cost.cpu_cycles = compute + stalls;
    cost.dram_bytes = traffic;
    cost.latency_us = cost.cpu_cycles / (m.cpu.freq_ghz * 1e3);
    return cost;
}

/** SmartNIC autonomous offload (TLS only, size-preserving). */
UlpCost
smartNicCost(Ulp ulp, std::size_t bytes, const LoadContext &ctx,
             const CostModel &m)
{
    UlpCost cost;
    if (ulp == Ulp::kNone)
        return cost;
    if (ulp == Ulp::kDeflate) {
        // Non-size-preserving ULPs break the TCP state machine
        // when transformed below the stack (Obs. 1).
        cost.supported = false;
        return cost;
    }

    const double b = static_cast<double>(bytes);
    const double segments =
        std::max(1.0, b / static_cast<double>(net::kTcpMss));

    // Crypto moves to the NIC, but the driver tracks every record
    // and marks every segment for the inline engine — fixed taxes
    // that erase the benefit for small records (Fig. 11 @ 4 KB).
    double cycles = records(bytes) * m.smartnic.record_skip_cycles +
                    segments * m.smartnic.per_segment_cycles;

    // The plaintext still streams through host memory to the NIC
    // (fewer passes than on-CPU crypto: no ciphertext copy).
    double traffic = b * 1.2 * ctx.leak_fraction;
    cycles += missStalls(traffic, missCycles(m, ctx), bytes);

    // Loss/reorder resynchronisation: driver sync + software
    // fallback crypto for in-flight records (Fig. 2's collapse).
    if (ctx.loss_events_per_message > 0) {
        const double fallback_bytes =
            m.smartnic.fallback_records *
            std::min<double>(b, crypto::kTlsMaxFragment);
        cycles += ctx.loss_events_per_message *
                  (m.smartnic.resync_us * m.cpu.freq_ghz * 1e3 +
                   fallback_bytes * m.cpu.aesni_cycles_per_byte);
        traffic += ctx.loss_events_per_message * fallback_bytes *
                   ctx.leak_fraction * 2.0;
    }

    cost.cpu_cycles = cycles;
    cost.dram_bytes = traffic;
    cost.latency_us =
        b / (m.smartnic.nic_crypto_gbps * 1e3) +
        cycles / (m.cpu.freq_ghz * 1e3);
    return cost;
}

/** PCIe QuickAssist placement, synchronous-offload configuration. */
UlpCost
qatCost(Ulp ulp, std::size_t bytes, const LoadContext &ctx,
        const CostModel &m)
{
    UlpCost cost;
    if (ulp == Ulp::kNone)
        return cost;
    const double b = static_cast<double>(bytes);

    // The worker blocks on each offload (descriptor setup, PCIe
    // transfer, accelerator time, completion wake-up) — the
    // fine-grain-offload tax of Obs. 2. TLS offloads per record;
    // compression offloads per 4 KB page.
    const double jobs = ulp == Ulp::kTlsEncrypt ? records(bytes)
                                                : pages(bytes);
    const double rate = ulp == Ulp::kTlsEncrypt
                            ? m.qat.crypto_gbps
                            : m.qat.compress_gbps;
    const double block_us =
        jobs * (ulp == Ulp::kTlsEncrypt
                    ? m.qat.crypto_block_us
                    : m.qat.compress_block_us) +
        2.0 * b / (m.qat.pcie_gbps * 1e3) + b / (rate * 1e3);

    double cycles = jobs * m.qat.mgmt_cycles +
                    block_us * m.cpu.freq_ghz * 1e3;

    // Bounce buffers + descriptor rings double-move the payload
    // through DRAM regardless of cache state.
    const double traffic = b * m.qat.dram_traffic_factor +
                           b * 2.0 * ctx.leak_fraction;
    cycles += missStalls(traffic, missCycles(m, ctx), bytes);

    cost.cpu_cycles = cycles;
    cost.dram_bytes = traffic;
    cost.latency_us = block_us + jobs * m.qat.mgmt_cycles /
                                     (m.cpu.freq_ghz * 1e3);
    return cost;
}

/** SmartDIMM CompCpy placement (Sec. IV/V). */
UlpCost
smartDimmCost(Ulp ulp, std::size_t bytes, const LoadContext &ctx,
              const CostModel &m)
{
    UlpCost cost;
    if (ulp == Ulp::kNone)
        return cost;
    const double b = static_cast<double>(bytes);

    // CompCpy software: freePages bookkeeping + registration MMIO
    // writes per page, clflush of sbuf, the 64 B-stride copy, and
    // the USE-side flush of the (ratio-scaled) output.
    double cycles =
        records(bytes) * m.smartdimm.bookkeeping_cycles +
        pages(bytes) * m.smartdimm.register_cycles +
        lines(bytes) * m.smartdimm.flush_line_cycles +
        b / m.cpu.memcpy_bytes_per_cycle +
        lines(static_cast<std::size_t>(b * ctx.output_ratio)) *
            m.smartdimm.flush_line_cycles;
    if (ulp == Ulp::kDeflate)
        cycles += lines(bytes) * m.smartdimm.fence_cycles;

    // The copy's reads come from DRAM (sbuf was flushed) but
    // stream with deep MLP. Far-homed sources pay the link here.
    cycles += lines(bytes) * missCycles(m, ctx) * 0.12;

    // Inline transform: exactly one channel pass in (the rdCAS
    // the DSA taps) and one out (the self-recycled wrCAS) — no
    // contention-dependent re-reads.
    const double traffic = b + b * ctx.output_ratio;

    cost.cpu_cycles = cycles;
    cost.dram_bytes = traffic;
    cost.latency_us = cycles / (m.cpu.freq_ghz * 1e3);
    return cost;
}

/**
 * SmartDIMM behind a CXL.mem link (the far-memory tier, DESIGN.md
 * §15). The transform runs near the data on the far device, so the
 * contention-dependent re-read traffic of the host placements never
 * crosses the link — only the control path (per-page registration
 * MMIO, the doorbell, and the withheld completion read) pays round
 * trips, and the streamed copy exposes a small pipelined share of the
 * flight time per line.
 */
UlpCost
cxlMemCost(Ulp ulp, std::size_t bytes, const LoadContext &ctx,
           const CostModel &m)
{
    UlpCost cost;
    if (ulp == Ulp::kNone)
        return cost;
    const double b = static_cast<double>(bytes);
    const double rt_cycles =
        m.cxl.round_trip_ns * m.cpu.freq_ghz;

    // CompCpy software as on the local SmartDIMM, with the MMIO
    // registration writes now crossing the link (one round trip
    // per page pair) plus the doorbell + withheld completion read.
    double cycles =
        records(bytes) * m.smartdimm.bookkeeping_cycles +
        pages(bytes) * (m.smartdimm.register_cycles + rt_cycles) +
        lines(bytes) * m.smartdimm.flush_line_cycles +
        b / m.cpu.memcpy_bytes_per_cycle +
        lines(static_cast<std::size_t>(b * ctx.output_ratio)) *
            m.smartdimm.flush_line_cycles +
        m.cxl.doorbell_round_trips * rt_cycles;
    if (ulp == Ulp::kDeflate)
        cycles += lines(bytes) * m.smartdimm.fence_cycles;

    // The copy streams over the flex-bus: deep MLP hides most of
    // each line's flight time; serialization bounds the rest.
    cycles += lines(bytes) * rt_cycles * m.cxl.mlp_exposure;

    // Near-data transform: the in/out passes stay on the far
    // device's channel. Host DRAM sees only the source read.
    const double traffic = b;

    cost.cpu_cycles = cycles;
    cost.dram_bytes = traffic;
    cost.latency_us = cycles / (m.cpu.freq_ghz * 1e3) +
                      b / (m.cxl.link_gbps * 1e3);
    return cost;
}

} // namespace

const char *
placementName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::kCpu: return "CPU";
      case PlacementKind::kSmartNic: return "SmartNIC";
      case PlacementKind::kQuickAssist: return "QuickAssist";
      case PlacementKind::kSmartDimm: return "SmartDIMM";
      case PlacementKind::kCxlMem: return "CXL.mem";
    }
    SD_PANIC("unknown placement kind");
}

UlpCost
messageCost(PlacementKind kind, Ulp ulp, std::size_t bytes,
            const LoadContext &ctx, const CostModel &model)
{
    switch (kind) {
      case PlacementKind::kCpu:
        return cpuCost(ulp, bytes, ctx, model);
      case PlacementKind::kSmartNic:
        return smartNicCost(ulp, bytes, ctx, model);
      case PlacementKind::kQuickAssist:
        return qatCost(ulp, bytes, ctx, model);
      case PlacementKind::kSmartDimm:
        return smartDimmCost(ulp, bytes, ctx, model);
      case PlacementKind::kCxlMem:
        return cxlMemCost(ulp, bytes, ctx, model);
    }
    SD_PANIC("unknown placement kind");
}

} // namespace sd::offload
