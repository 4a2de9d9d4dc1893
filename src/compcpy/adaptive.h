/**
 * @file
 * Adaptive offload policy (Sec. V-C / Fig. 8): the software stack
 * samples the LLC miss rate and switches ULP processing between the
 * CPU and SmartDIMM per message. An EWMA plus hysteresis keeps the
 * decision stable around the threshold.
 */

#ifndef SD_COMPCPY_ADAPTIVE_H
#define SD_COMPCPY_ADAPTIVE_H

#include "cache/cache.h"
#include "trace/trace.h"

namespace sd::compcpy {

/** Smoothed LLC miss rate above which ULP work is offloaded. */
inline constexpr double kOffloadMissRate = 0.30;

/** +/- band around kOffloadMissRate that keeps a decision stable. */
inline constexpr double kMissRateHysteresis = 0.05;

/** EWMA weight of the newest probe sample. */
inline constexpr double kMissRateEwmaAlpha = 0.3;

/** Decision state machine fed by periodic LLC probes. */
class LlcContentionProbe
{
  public:
    explicit LlcContentionProbe(cache::Cache &llc) : llc_(llc) {}

    /**
     * Take a probe sample and update the decision. Called
     * periodically by the engine (each batch of requests).
     */
    void
    sample()
    {
        const double rate = llc_.probeMissRate();
        ewma_ = ewma_ < 0 ? rate
                          : kMissRateEwmaAlpha * rate +
                                (1 - kMissRateEwmaAlpha) * ewma_;
        ++samples_;
        const bool was = offload_;
        if (offload_ && ewma_ < kOffloadMissRate - kMissRateHysteresis)
            offload_ = false;
        else if (!offload_ &&
                 ewma_ > kOffloadMissRate + kMissRateHysteresis)
            offload_ = true;
        if (offload_ != was)
            ++switches_;
    }

    /**
     * Signal that the last offloaded call completed degraded (ALERT_N
     * exhaustion or a rejected registration). The probe immediately
     * falls back to CPU placement and resets the EWMA so the next
     * sample() re-learns the contention level from scratch rather
     * than re-offloading on stale history.
     */
    void
    noteDegraded()
    {
        if (offload_)
            ++switches_;
        offload_ = false;
        ewma_ = -1.0;
        ++degraded_notes_;
    }

    /** Current decision: true = offload to SmartDIMM. */
    bool shouldOffload() const { return offload_; }

    /** Smoothed miss rate. */
    double missRateEwma() const { return ewma_ < 0 ? 0.0 : ewma_; }

    /** CPU<->SmartDIMM decision flips (stability metric). */
    std::uint64_t switches() const { return switches_; }

    /** Contribute probe counters to a stats dump. */
    void
    reportStats(trace::StatsBlock &block) const
    {
        block.scalar("samples", static_cast<double>(samples_));
        block.scalar("switches", static_cast<double>(switches_));
        block.scalar("degraded_notes",
                     static_cast<double>(degraded_notes_));
        block.scalar("miss_rate_ewma", missRateEwma());
        block.scalar("offloading", offload_ ? 1.0 : 0.0);
    }

  private:
    cache::Cache &llc_;
    double ewma_ = -1.0;
    bool offload_ = false;
    std::uint64_t samples_ = 0;
    std::uint64_t switches_ = 0;
    std::uint64_t degraded_notes_ = 0;
};

} // namespace sd::compcpy

#endif // SD_COMPCPY_ADAPTIVE_H
