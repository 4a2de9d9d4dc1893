/**
 * @file
 * Placement cost models: structural properties the evaluation relies
 * on — SmartNIC cannot carry Deflate, QAT pays fixed per-offload
 * taxes, SmartDIMM traffic is contention-independent, CPU costs
 * scale with the leak fraction, and the design-space scores follow.
 */

#include <gtest/gtest.h>

#include "offload/design_space.h"
#include "offload/placement.h"

namespace {

using namespace sd::offload;

LoadContext
ctxAt(double leak)
{
    LoadContext ctx;
    ctx.leak_fraction = leak;
    return ctx;
}

TEST(Placement, SmartNicRejectsDeflate)
{
    const auto nic = makePlacement(PlacementKind::kSmartNic);
    const auto cost = nic->messageCost(Ulp::kDeflate, 4096, ctxAt(0.5));
    EXPECT_FALSE(cost.supported);
    EXPECT_TRUE(nic->messageCost(Ulp::kTlsEncrypt, 4096, ctxAt(0.5))
                    .supported);
}

// ---------------------------------------------------------------------------
// Invariants every placement must satisfy (parameterized over the
// full kind list, so adding a placement automatically extends the
// suite).
// ---------------------------------------------------------------------------

class EveryPlacement : public ::testing::TestWithParam<PlacementKind>
{
};

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EveryPlacement, ::testing::ValuesIn(kAllPlacementKinds),
    [](const ::testing::TestParamInfo<PlacementKind> &info) {
        switch (info.param) {
          case PlacementKind::kCpu: return "Cpu";
          case PlacementKind::kSmartNic: return "SmartNic";
          case PlacementKind::kQuickAssist: return "QuickAssist";
          case PlacementKind::kSmartDimm: return "SmartDimm";
          case PlacementKind::kCxlMem: return "CxlMem";
        }
        return "Unknown";
    });

TEST_P(EveryPlacement, FreeForPlainHttp)
{
    const auto p = makePlacement(GetParam());
    const auto cost = p->messageCost(Ulp::kNone, 4096, ctxAt(0.5));
    EXPECT_EQ(cost.cpu_cycles, 0.0) << p->name();
    EXPECT_EQ(cost.dram_bytes, 0.0) << p->name();
}

TEST_P(EveryPlacement, SupportedCostsAreFiniteAndPositive)
{
    const auto p = makePlacement(GetParam());
    for (auto ulp : {Ulp::kTlsEncrypt, Ulp::kDeflate}) {
        const auto cost = p->messageCost(ulp, 4096, ctxAt(0.5));
        if (!cost.supported)
            continue;
        EXPECT_GT(cost.cpu_cycles, 0.0) << p->name();
        EXPECT_GT(cost.dram_bytes, 0.0) << p->name();
        EXPECT_GT(cost.latency_us, 0.0) << p->name();
    }
}

TEST_P(EveryPlacement, CyclesMonotoneInMessageSize)
{
    const auto p = makePlacement(GetParam());
    const auto small = p->messageCost(Ulp::kTlsEncrypt, 1024,
                                      ctxAt(0.5));
    const auto big = p->messageCost(Ulp::kTlsEncrypt, 65536,
                                    ctxAt(0.5));
    if (small.supported && big.supported) {
        EXPECT_GT(big.cpu_cycles, small.cpu_cycles) << p->name();
    }
}

TEST_P(EveryPlacement, FarMemoryNeverMakesAnythingCheaper)
{
    const auto p = makePlacement(GetParam());
    LoadContext near = ctxAt(0.5);
    LoadContext far = ctxAt(0.5);
    far.far_mem_extra_ns = 1500.0;
    const auto near_cost = p->messageCost(Ulp::kTlsEncrypt, 16384, near);
    const auto far_cost = p->messageCost(Ulp::kTlsEncrypt, 16384, far);
    if (near_cost.supported) {
        EXPECT_GE(far_cost.cpu_cycles, near_cost.cpu_cycles)
            << p->name();
    }
}

TEST(Placement, CpuCostGrowsWithContention)
{
    const auto cpu = makePlacement(PlacementKind::kCpu);
    const auto quiet =
        cpu->messageCost(Ulp::kTlsEncrypt, 16384, ctxAt(0.0));
    const auto thrashed =
        cpu->messageCost(Ulp::kTlsEncrypt, 16384, ctxAt(1.0));
    EXPECT_GT(thrashed.cpu_cycles, quiet.cpu_cycles * 1.3);
    EXPECT_GT(thrashed.dram_bytes, quiet.dram_bytes);
}

TEST(Placement, SmartDimmTrafficIsContentionIndependent)
{
    const auto dimm = makePlacement(PlacementKind::kSmartDimm);
    const auto quiet =
        dimm->messageCost(Ulp::kTlsEncrypt, 16384, ctxAt(0.0));
    const auto thrashed =
        dimm->messageCost(Ulp::kTlsEncrypt, 16384, ctxAt(1.0));
    // Inline offload: one pass in + one out, no re-read terms.
    EXPECT_DOUBLE_EQ(quiet.dram_bytes, thrashed.dram_bytes);
    EXPECT_DOUBLE_EQ(quiet.dram_bytes, 2.0 * 16384);
}

TEST(Placement, SmartDimmBeatsCpuUnderContention)
{
    const auto cpu = makePlacement(PlacementKind::kCpu);
    const auto dimm = makePlacement(PlacementKind::kSmartDimm);
    const auto ctx = ctxAt(0.8);
    EXPECT_LT(dimm->messageCost(Ulp::kTlsEncrypt, 4096, ctx).cpu_cycles,
              cpu->messageCost(Ulp::kTlsEncrypt, 4096, ctx).cpu_cycles);
    EXPECT_LT(dimm->messageCost(Ulp::kDeflate, 4000, ctx).cpu_cycles,
              cpu->messageCost(Ulp::kDeflate, 4000, ctx).cpu_cycles);
}

TEST(Placement, CpuWinsWhenQuiet)
{
    // With no contention the copy/flush overhead makes offload a net
    // loss for small TLS records — the adaptive policy's raison
    // d'etre (Sec. V-C).
    const auto cpu = makePlacement(PlacementKind::kCpu);
    const auto dimm = makePlacement(PlacementKind::kSmartDimm);
    const auto ctx = ctxAt(0.0);
    EXPECT_LT(cpu->messageCost(Ulp::kTlsEncrypt, 4096, ctx).cpu_cycles,
              dimm->messageCost(Ulp::kTlsEncrypt, 4096, ctx).cpu_cycles);
}

TEST(Placement, QatPaysFixedTaxPerOffload)
{
    const auto qat = makePlacement(PlacementKind::kQuickAssist);
    const auto small =
        qat->messageCost(Ulp::kTlsEncrypt, 1024, ctxAt(0.2));
    const auto big =
        qat->messageCost(Ulp::kTlsEncrypt, 16384, ctxAt(0.2));
    // Cost per byte must be far worse for the small offload.
    EXPECT_GT(small.cpu_cycles / 1024.0,
              2.0 * big.cpu_cycles / 16384.0);
    EXPECT_GT(small.latency_us, 10.0); // blocking round trip
}

TEST(Placement, SmartNicDegradesWithLossEvents)
{
    const auto nic = makePlacement(PlacementKind::kSmartNic);
    LoadContext lossless = ctxAt(0.5);
    LoadContext lossy = ctxAt(0.5);
    lossy.loss_events_per_message = 0.1;
    EXPECT_GT(
        nic->messageCost(Ulp::kTlsEncrypt, 16384, lossy).cpu_cycles,
        nic->messageCost(Ulp::kTlsEncrypt, 16384, lossless).cpu_cycles *
            1.2);
}

TEST(Placement, DeflateOutputRatioShrinksSmartDimmTraffic)
{
    const auto dimm = makePlacement(PlacementKind::kSmartDimm);
    LoadContext ctx = ctxAt(0.5);
    ctx.output_ratio = 0.38;
    const auto cost = dimm->messageCost(Ulp::kDeflate, 4000, ctx);
    EXPECT_NEAR(cost.dram_bytes, 4000 * 1.38, 1.0);
}

TEST(CxlMem, BeatsCpuOnFarHomedData)
{
    // The acceptance story of the far tier: once the data is homed
    // behind the link, the CPU pays the round trip on every demand
    // miss while the near-data transform pays it only on its control
    // path — so at >= 600 ns the tier must win, and the advantage
    // must grow with link latency.
    double last_ratio = 0.0;
    for (double ns : {600.0, 1500.0}) {
        CostModel model;
        model.cxl.round_trip_ns = ns;
        LoadContext ctx;
        ctx.leak_fraction = 1.0;
        ctx.far_mem_extra_ns = ns;
        const auto cpu = makePlacement(PlacementKind::kCpu, model);
        const auto cxl = makePlacement(PlacementKind::kCxlMem, model);
        const double cpu_cycles =
            cpu->messageCost(Ulp::kTlsEncrypt, 4096, ctx).cpu_cycles;
        const double cxl_cycles =
            cxl->messageCost(Ulp::kTlsEncrypt, 4096, ctx).cpu_cycles;
        EXPECT_LT(cxl_cycles, cpu_cycles) << ns << " ns";
        EXPECT_GT(cpu_cycles / cxl_cycles, last_ratio) << ns << " ns";
        last_ratio = cpu_cycles / cxl_cycles;
    }
}

TEST(CxlMem, ControlPathScalesWithLinkLatency)
{
    CostModel near_model;
    near_model.cxl.round_trip_ns = 300.0;
    CostModel far_model;
    far_model.cxl.round_trip_ns = 1500.0;
    LoadContext ctx;
    const auto near_p =
        makePlacement(PlacementKind::kCxlMem, near_model);
    const auto far_p = makePlacement(PlacementKind::kCxlMem, far_model);
    const auto near_cost =
        near_p->messageCost(Ulp::kTlsEncrypt, 4096, ctx);
    const auto far_cost =
        far_p->messageCost(Ulp::kTlsEncrypt, 4096, ctx);
    // A slower link costs cycles and latency, but the tier stays
    // near-data: the host-visible traffic does not change.
    EXPECT_GT(far_cost.cpu_cycles, near_cost.cpu_cycles);
    EXPECT_GT(far_cost.latency_us, near_cost.latency_us);
    EXPECT_DOUBLE_EQ(far_cost.dram_bytes, near_cost.dram_bytes);
}

TEST(CxlMem, TrafficIsContentionIndependentLikeSmartDimm)
{
    const auto cxl = makePlacement(PlacementKind::kCxlMem);
    const auto quiet =
        cxl->messageCost(Ulp::kTlsEncrypt, 16384, ctxAt(0.0));
    const auto thrashed =
        cxl->messageCost(Ulp::kTlsEncrypt, 16384, ctxAt(1.0));
    EXPECT_DOUBLE_EQ(quiet.dram_bytes, thrashed.dram_bytes);
}

TEST(DesignSpace, ScoresMatchThePaperNarrative)
{
    const auto points = designSpace();
    ASSERT_EQ(points.size(), 5u);

    const auto score = [&](std::size_t option, Criterion c) {
        return points[option].scores[static_cast<std::size_t>(c)];
    };
    // Options: 0=CPU, 1=SmartNIC, 2=PCIe, 3=SmartDIMM, 4=CXL.mem.
    // CPU leads at low contention, SmartDIMM at high contention.
    EXPECT_GE(score(0, Criterion::kLowContentionPerf),
              score(3, Criterion::kLowContentionPerf) - 1.0);
    EXPECT_GT(score(3, Criterion::kHighContentionPerf),
              score(0, Criterion::kHighContentionPerf));
    // SmartNIC is the only option limited in ULP diversity.
    EXPECT_LT(score(1, Criterion::kUlpDiversity),
              score(0, Criterion::kUlpDiversity));
    EXPECT_LT(score(1, Criterion::kUlpDiversity),
              score(3, Criterion::kUlpDiversity));
    // Loss resilience: SmartNIC strictly below CPU and SmartDIMM.
    EXPECT_LT(score(1, Criterion::kLossResilience),
              score(0, Criterion::kLossResilience));
    EXPECT_LT(score(1, Criterion::kLossResilience),
              score(3, Criterion::kLossResilience));
    // PCIe pays the fine-grain offload tax on raw performance.
    EXPECT_LT(score(2, Criterion::kLowContentionPerf),
              score(0, Criterion::kLowContentionPerf));
    // The CXL.mem tier keeps the SmartDIMM's protocol structure (the
    // far link changes timing, not protocol) and stays near the local
    // SmartDIMM under contention despite the link round trips.
    EXPECT_EQ(points[4].option, "CXL.mem SmartDIMM");
    EXPECT_EQ(score(4, Criterion::kTransportCompat),
              score(3, Criterion::kTransportCompat));
    EXPECT_EQ(score(4, Criterion::kUlpDiversity),
              score(3, Criterion::kUlpDiversity));
    EXPECT_GT(score(4, Criterion::kHighContentionPerf),
              score(0, Criterion::kHighContentionPerf));
}

} // namespace
