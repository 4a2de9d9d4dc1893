/**
 * @file
 * Analytic power/area model for the buffer device (Sec. VII-D).
 * Dynamic power is computed from activity counters (translation
 * lookups, scratchpad accesses, DSA line operations) with per-event
 * energies calibrated so a fully-utilised DDR channel draws ~4.78 W —
 * the paper's Vivado estimate — and typical TLS offloading (<30%
 * channel utilisation) adds ~0.9 W to the AxDIMM.
 */

#ifndef SD_SMARTDIMM_POWER_MODEL_H
#define SD_SMARTDIMM_POWER_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "smartdimm/buffer_device.h"

namespace sd::smartdimm {

/** One row of the power/area report. */
struct PowerBreakdownRow
{
    std::string component;
    double watts = 0.0;
    double fpga_luts_pct = 0.0; ///< share of the AxDIMM FPGA fabric
};

/** Computed report. */
struct PowerReport
{
    std::vector<PowerBreakdownRow> rows;
    double dynamic_watts = 0.0;
    double channel_utilization = 0.0; ///< fraction of DDR peak
    double fpga_resources_pct = 0.0;  ///< total fabric share
};

/**
 * Evaluate the model over a window.
 * @param device the buffer device whose counters to read
 * @param window_ticks elapsed simulated time
 * @param channel_bytes DRAM bytes moved in the window (utilisation)
 */
PowerReport estimatePower(const BufferDevice &device, Tick window_ticks,
                          std::uint64_t channel_bytes);

/** Peak dynamic power at 100% DDR4-3200 channel utilisation. */
double peakDynamicWatts();

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_POWER_MODEL_H
