/**
 * @file
 * Segment loss/reordering injection — the programmable-switch stand-in
 * used for the Fig. 2 experiment. Bernoulli drops with optional bursts
 * plus probabilistic reordering.
 */

#ifndef SD_NET_LOSS_MODEL_H
#define SD_NET_LOSS_MODEL_H

#include "common/random.h"
#include "fault/fault.h"

namespace sd::net {

/** Injector policy. */
struct LossConfig
{
    double drop_prob = 0.0;    ///< per-segment drop probability
    double reorder_prob = 0.0; ///< per-segment reorder probability
    unsigned burst_len = 1;    ///< consecutive drops per loss event
};

/** Stateless-ish injector (burst state only). */
class LossInjector
{
  public:
    LossInjector(const LossConfig &config, std::uint64_t seed)
        : config_(config), rng_(seed)
    {
    }

    /**
     * Attach a fault plan (not owned; may be null). kNetLoss scripts a
     * burst-loss episode and kNetReorder a reorder event, each on top
     * of (and independent of) the Bernoulli streams — the plan owns
     * its own RNG, so arming it never perturbs the base loss pattern.
     */
    void setFaultPlan(fault::FaultPlan *plan) { fault_plan_ = plan; }

    /** @return true when this segment should be dropped. */
    bool
    shouldDrop()
    {
        if (burst_remaining_ > 0) {
            --burst_remaining_;
            ++drops_;
            return true;
        }
        if (fault::fires(fault_plan_, fault::Site::kNetLoss)) {
            burst_remaining_ = config_.burst_len - 1;
            ++scripted_drops_;
            ++drops_;
            return true;
        }
        if (rng_.chance(config_.drop_prob)) {
            burst_remaining_ = config_.burst_len - 1;
            ++drops_;
            return true;
        }
        return false;
    }

    /** @return true when this segment should be delayed past the next. */
    bool
    shouldReorder()
    {
        if (fault::fires(fault_plan_, fault::Site::kNetReorder)) {
            ++scripted_reorders_;
            ++reorders_;
            return true;
        }
        const bool reorder = rng_.chance(config_.reorder_prob);
        reorders_ += reorder;
        return reorder;
    }

    std::uint64_t drops() const { return drops_; }
    std::uint64_t reorders() const { return reorders_; }
    std::uint64_t scriptedDrops() const { return scripted_drops_; }
    std::uint64_t scriptedReorders() const { return scripted_reorders_; }

  private:
    LossConfig config_;
    Rng rng_;
    fault::FaultPlan *fault_plan_ = nullptr;
    unsigned burst_remaining_ = 0;
    std::uint64_t drops_ = 0;
    std::uint64_t reorders_ = 0;
    std::uint64_t scripted_drops_ = 0;
    std::uint64_t scripted_reorders_ = 0;
};

} // namespace sd::net

#endif // SD_NET_LOSS_MODEL_H
