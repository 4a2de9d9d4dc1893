#include "smartdimm/power_model.h"

#include <algorithm>

namespace sd::smartdimm {

namespace {

// Per-event dynamic energies (picojoules).
constexpr double kTranslationLookupPj = 180.0; ///< 3 hash probes + CAM (FPGA)
constexpr double kScratchpadAccessPj = 840.0;  ///< 64 B SRAM r/w
constexpr double kConfigAccessPj = 640.0;      ///< context slot access
/** 4 AES rounds pipe + GHASH; charged for every DSA line, any ULP. */
constexpr double kDsaTlsLinePj = 21000.0;
constexpr double kPhyPassthroughPj = 360.0; ///< DDR PHY + slot decode

/** DDR4-3200 single-channel peak: 25.6 GB/s. */
constexpr double kChannelPeakBytesPerSec = 25.6e9;

/** FPGA fabric shares per block (TLS offload build, Sec. VII-D). */
struct FabricShare
{
    const char *component;
    double pct;
};

constexpr FabricShare kFabric[] = {
    {"ddr_mig_phy", 6.5},
    {"slot_decoder_bank_table", 1.2},
    {"translation_table", 2.6},
    {"scratchpad_ctrl", 3.1},
    {"config_memory", 1.9},
    {"tls_dsa", 6.5},
};

} // namespace

double
peakDynamicWatts()
{
    // At full channel rate every 64-byte slot carries a CAS: one
    // translation lookup + PHY passthrough, and (worst case for the
    // accelerated path) a DSA line op plus scratchpad write on reads
    // and a scratchpad drain on writes.
    const double lines_per_sec = kChannelPeakBytesPerSec / kCacheLineSize;
    const double per_line_pj =
        kTranslationLookupPj + kPhyPassthroughPj +
        kDsaTlsLinePj / 2.0 + // half the slots are reads
        kScratchpadAccessPj;
    return lines_per_sec * per_line_pj * 1e-12;
}

PowerReport
estimatePower(const BufferDevice &device, Tick window_ticks,
              std::uint64_t channel_bytes)
{
    PowerReport report;
    if (window_ticks == 0)
        return report;
    const double seconds =
        static_cast<double>(window_ticks) / kTicksPerSecond;

    const ArbiterStats &arb = device.stats();
    const ScratchpadStats &sp = device.scratchpad().stats();
    const CuckooStats &tt = device.translationTable().stats();
    const ConfigMemoryStats &cm = device.configMemory().stats();

    const double tt_j = static_cast<double>(tt.lookups) *
                        kTranslationLookupPj * 1e-12;
    const double sp_j =
        static_cast<double>(sp.reads + sp.writes + sp.self_recycles) *
        kScratchpadAccessPj * 1e-12;
    const double cm_j =
        static_cast<double>(cm.context_reads + cm.context_writes) *
        kConfigAccessPj * 1e-12;
    const double dsa_j = static_cast<double>(arb.sbuf_reads) *
                         kDsaTlsLinePj * 1e-12;
    const double phy_events = static_cast<double>(
        arb.plain_reads + arb.plain_writes + arb.sbuf_reads +
        arb.dbuf_recycles + arb.dbuf_scratch_reads + arb.mmio_reads +
        arb.mmio_writes);
    const double phy_j = phy_events * kPhyPassthroughPj * 1e-12;

    const double total_w =
        (tt_j + sp_j + cm_j + dsa_j + phy_j) / seconds;

    report.rows = {
        {"ddr_mig_phy", phy_j / seconds, kFabric[0].pct},
        {"slot_decoder_bank_table", 0.08 * total_w, kFabric[1].pct},
        {"translation_table", tt_j / seconds, kFabric[2].pct},
        {"scratchpad_ctrl", sp_j / seconds, kFabric[3].pct},
        {"config_memory", cm_j / seconds, kFabric[4].pct},
        {"tls_dsa", dsa_j / seconds, kFabric[5].pct},
    };
    report.dynamic_watts = total_w;
    report.channel_utilization =
        static_cast<double>(channel_bytes) /
        (kChannelPeakBytesPerSec * seconds);
    for (const auto &row : kFabric)
        report.fpga_resources_pct += row.pct;
    return report;
}

} // namespace sd::smartdimm
