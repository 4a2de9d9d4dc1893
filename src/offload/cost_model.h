/**
 * @file
 * Calibrated cost parameters for each accelerator placement. Every
 * constant is documented with its provenance: published datasheet
 * numbers, the paper's own measurements, or derived calibration
 * against the paper's Fig. 11/12 baselines. All placements share this
 * one header so the benches and tests can sweep or ablate them.
 *
 * Concurrency contract: plain value types with no hidden state. A
 * CostModel is configured once (single-owner while being mutated by a
 * sweep or ablation) and may then be shared read-only across any
 * number of threads, or simply copied per thread — copies are cheap
 * and independent. Nothing here requires synchronisation as long as
 * writes do not overlap reads, which the placement/design-space code
 * honours by treating models as immutable after construction.
 */

#ifndef SD_OFFLOAD_COST_MODEL_H
#define SD_OFFLOAD_COST_MODEL_H

#include <cstddef>

#include "common/cxl_defaults.h"

namespace sd::offload {

/** Host CPU parameters (Xeon Gold 6242 class, Sec. VI). */
struct CpuParams
{
    double freq_ghz = 2.8;

    /**
     * Per-request web-server base cost: accept/parse/respond through
     * the kernel socket + TCP stack. Nginx measurements commonly land
     * in the 20-40k cycle range per keep-alive request; calibrated so
     * the HTTP-only server saturates ~10 threads at 100 GbE with 4 KB
     * objects, as the paper's methodology requires.
     */
    double base_request_cycles = 30000;

    /** Per-TCP-segment transmit cost (skb + qdisc + doorbell). */
    double per_segment_cycles = 450;

    /** memcpy throughput, bytes per cycle (AVX-512 streaming). */
    double memcpy_bytes_per_cycle = 16.0;

    /** AES-GCM with AES-NI+PCLMUL, cycles per byte (Intel white
     *  papers report 0.64-1.3 cpb on Skylake-era cores). */
    double aesni_cycles_per_byte = 0.85;

    /** Per-record TLS overhead (nonce, tag, record framing). */
    double tls_record_cycles = 1400;

    /** Software deflate (zlib level-1 class), cycles per byte. */
    double deflate_cycles_per_byte = 30.0;

    /** Per-message deflate setup (window/tables). */
    double deflate_setup_cycles = 2500;

    /** Average DRAM access penalty under load, cycles per miss. */
    double dram_miss_cycles = 260;
};

/** LLC / memory-system coupling. */
struct MemoryParams
{
    double llc_mb = 27.5;          ///< Xeon 6242: 27.5 MB L3
    double peak_bw_gbps = 6 * 25.6; ///< 6 channels DDR4-3200 (GB/s)
    /** Per-connection buffering (socket + TLS + app) that competes
     *  for LLC; kernel totals land in the 32-128 KB range. */
    double per_connection_kb = 64.0;
};

/** NVIDIA ConnectX-6 class autonomous TLS offload (Obs. 1). */
struct SmartNicParams
{
    /** CPU-side record bookkeeping when crypto is skipped: the
     *  driver tracks TLS record boundaries per skb and programs the
     *  NIC's per-connection crypto state — a fixed per-record tax
     *  that erases the benefit for small records (Fig. 11). */
    double record_skip_cycles = 9000;

    /** Extra per-segment driver work: marking each skb for the
     *  inline engine and maintaining resync metadata. */
    double per_segment_cycles = 1500;

    /**
     * Driver resynchronisation after loss/reordering: the NIC state
     * must be rebuilt from the socket; Pismenny et al. report tens of
     * microseconds per resync plus software fallback crypto for the
     * affected records.
     */
    double resync_us = 30.0;

    /** Records re-encrypted in software per resync episode. */
    double fallback_records = 8.0;

    /** NIC crypto engine rate (GB/s) — far above 100 GbE line rate. */
    double nic_crypto_gbps = 50.0;
};

/** Intel QuickAssist 8970 class PCIe accelerator (Obs. 2). */
struct QatParams
{
    /**
     * Worker-blocking time per synchronous crypto offload: descriptor
     * setup + doorbell + completion wake-up. Published QAT studies
     * report 10-25 us round trips for small jobs; the blocking
     * configuration (nginx without an async engine) charges the full
     * wait to the worker.
     */
    double crypto_block_us = 25.0;

    /** Worker-blocking time per synchronous compression offload —
     *  the compression rings add scheduling + interrupt latency. */
    double compress_block_us = 55.0;

    /** CPU cycles for descriptor management per offload. */
    double mgmt_cycles = 9000;

    /** Effective PCIe Gen3 x16 data rate per direction (GB/s). */
    double pcie_gbps = 12.0;

    /** Accelerator crypto throughput (GB/s). */
    double crypto_gbps = 40.0;

    /** Accelerator compression throughput (GB/s). */
    double compress_gbps = 24.0;

    /** Extra DRAM traffic factor: descriptor rings + bounce buffers
     *  double-move the payload. */
    double dram_traffic_factor = 2.0;
};

/** SmartDIMM CompCpy software costs (Sec. IV-D / V). */
struct SmartDimmParams
{
    /** MMIO registration write per page pair. */
    double register_cycles = 300;

    /** clflush cost per line (sbuf flush + USE flush). */
    double flush_line_cycles = 28;

    /** freePages check + lock (amortised; lazy refresh). */
    double bookkeeping_cycles = 250;

    /** Ordered-mode fence penalty per 64 B (Deflate offloads). */
    double fence_cycles = 30;

    /** DSA line rate never throttles the channel (validated on the
     *  AxDIMM prototype, Sec. VI): no throughput term needed. */
};

/** CXL.mem-attached SmartDIMM (far-memory tier, ISSUE 10). */
struct CxlParams
{
    /** Link round trip, request to response (common/cxl_defaults.h). */
    double round_trip_ns = kCxlRoundTripNs;

    /** Flex-bus payload rate per direction (GB/s). */
    double link_gbps = kCxlLinkGbps;

    /** Control-path round trips per offload: the doorbell write plus
     *  the withheld completion read the controller holds open. */
    double doorbell_round_trips = 2.0;

    /** Share of the round trip a streamed line's miss exposes — far
     *  stores/loads pipeline deeply, hiding most of the flight time. */
    double mlp_exposure = 0.04;
};

/** The full calibrated model. */
struct CostModel
{
    CpuParams cpu;
    MemoryParams memory;
    SmartNicParams smartnic;
    QatParams qat;
    SmartDimmParams smartdimm;
    CxlParams cxl;
};

} // namespace sd::offload

#endif // SD_OFFLOAD_COST_MODEL_H
