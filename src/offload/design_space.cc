#include "offload/design_space.h"

#include <algorithm>
#include <iterator>
#include <cmath>

namespace sd::offload {

const std::array<std::string, kCriterionCount> &
criterionNames()
{
    static const std::array<std::string, kCriterionCount> names = {
        "low_contention_perf", "high_contention_perf",
        "transport_compat",    "ulp_diversity",
        "loss_resilience",     "transport_flexibility",
    };
    return names;
}

namespace {

/** Map relative throughput (vs. best option) to a 0..5 score. */
double
throughputScore(double cycles, double best_cycles)
{
    // best -> 5, 4x worse -> ~1.25.
    return std::clamp(5.0 * best_cycles / cycles, 0.0, 5.0);
}

} // namespace

std::vector<DesignPoint>
designSpace(const CostModel &model)
{
    constexpr std::size_t kMsg = 16384;

    // Structural criteria are fixed by the architecture. The SmartNIC
    // is a below-the-stack placement: size-preserving ULPs only, with
    // speculative state tied to TCP behaviour. The CXL.mem tier keeps
    // the local SmartDIMM's above-the-stack CompCpy interface: the far
    // link changes timing, not protocol.
    struct Option
    {
        PlacementKind kind;
        const char *name;
        double transport_compat;
        double ulp_diversity;
        double transport_flexibility;
    };
    const Option options[] = {
        {PlacementKind::kCpu, "CPU", 5, 5, 5},
        {PlacementKind::kSmartNic, "SmartNIC (autonomous)", 3, 2, 4},
        {PlacementKind::kQuickAssist, "PCIe accelerator", 5, 4, 5},
        {PlacementKind::kSmartDimm, "SmartDIMM", 5, 4, 5},
        {PlacementKind::kCxlMem, "CXL.mem SmartDIMM", 5, 4, 5},
    };
    constexpr std::size_t kOptions = std::size(options);

    LoadContext quiet;
    quiet.leak_fraction = 0.05;
    LoadContext contended;
    contended.leak_fraction = 0.9;
    LoadContext lossy;
    lossy.leak_fraction = 0.5;
    lossy.loss_events_per_message = 0.05;
    LoadContext lossless;
    lossless.leak_fraction = 0.5;

    // Collect TLS cycle costs at each operating point.
    std::array<double, kOptions> quiet_cycles{};
    std::array<double, kOptions> contended_cycles{};
    std::array<double, kOptions> lossy_cycles{};
    std::array<double, kOptions> lossless_cycles{};
    for (std::size_t i = 0; i < kOptions; ++i) {
        const auto cycles = [&](const LoadContext &ctx) {
            return messageCost(options[i].kind, Ulp::kTlsEncrypt, kMsg,
                               ctx, model)
                       .cpu_cycles +
                   model.cpu.base_request_cycles;
        };
        quiet_cycles[i] = cycles(quiet);
        contended_cycles[i] = cycles(contended);
        lossy_cycles[i] = cycles(lossy);
        lossless_cycles[i] = cycles(lossless);
    }
    const double best_quiet =
        *std::min_element(quiet_cycles.begin(), quiet_cycles.end());
    const double best_contended = *std::min_element(
        contended_cycles.begin(), contended_cycles.end());

    std::vector<DesignPoint> points;
    for (std::size_t i = 0; i < kOptions; ++i) {
        DesignPoint point;
        point.option = options[i].name;
        point.scores[static_cast<std::size_t>(
            Criterion::kLowContentionPerf)] =
            throughputScore(quiet_cycles[i], best_quiet);
        point.scores[static_cast<std::size_t>(
            Criterion::kHighContentionPerf)] =
            throughputScore(contended_cycles[i], best_contended);
        // Loss resilience: how much of the lossless throughput
        // survives a 5% loss-event rate.
        point.scores[static_cast<std::size_t>(
            Criterion::kLossResilience)] =
            std::clamp(5.0 * lossless_cycles[i] / lossy_cycles[i], 0.0,
                       5.0);

        point.scores[static_cast<std::size_t>(
            Criterion::kTransportCompat)] = options[i].transport_compat;
        point.scores[static_cast<std::size_t>(
            Criterion::kUlpDiversity)] = options[i].ulp_diversity;
        point.scores[static_cast<std::size_t>(
            Criterion::kTransportFlexibility)] =
            options[i].transport_flexibility;
        points.push_back(point);
    }
    return points;
}

} // namespace sd::offload
