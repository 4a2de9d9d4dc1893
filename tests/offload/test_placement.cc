/**
 * @file
 * Placement cost models: structural properties the evaluation relies
 * on — SmartNIC cannot carry Deflate, QAT pays fixed per-offload
 * taxes, SmartDIMM traffic is contention-independent, CPU costs
 * scale with the leak fraction, the design-space scores follow, and
 * every placement's outputs at fixed points are pinned.
 */

#include <gtest/gtest.h>

#include <iterator>

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
    const auto cost = messageCost(PlacementKind::kSmartNic, Ulp::kDeflate,
                                  4096, ctxAt(0.5));
    EXPECT_FALSE(cost.supported);
    EXPECT_TRUE(messageCost(PlacementKind::kSmartNic, Ulp::kTlsEncrypt,
                            4096, ctxAt(0.5))
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
    const char *name = placementName(GetParam());
    const auto cost = messageCost(GetParam(), Ulp::kNone, 4096, ctxAt(0.5));
    EXPECT_EQ(cost.cpu_cycles, 0.0) << name;
    EXPECT_EQ(cost.dram_bytes, 0.0) << name;
}

TEST_P(EveryPlacement, SupportedCostsAreFiniteAndPositive)
{
    const char *name = placementName(GetParam());
    for (auto ulp : {Ulp::kTlsEncrypt, Ulp::kDeflate}) {
        const auto cost = messageCost(GetParam(), ulp, 4096, ctxAt(0.5));
        if (!cost.supported)
            continue;
        EXPECT_GT(cost.cpu_cycles, 0.0) << name;
        EXPECT_GT(cost.dram_bytes, 0.0) << name;
        EXPECT_GT(cost.latency_us, 0.0) << name;
    }
}

TEST_P(EveryPlacement, CyclesMonotoneInMessageSize)
{
    const auto small =
        messageCost(GetParam(), Ulp::kTlsEncrypt, 1024, ctxAt(0.5));
    const auto big =
        messageCost(GetParam(), Ulp::kTlsEncrypt, 65536, ctxAt(0.5));
    if (small.supported && big.supported) {
        EXPECT_GT(big.cpu_cycles, small.cpu_cycles)
            << placementName(GetParam());
    }
}

TEST_P(EveryPlacement, FarMemoryNeverMakesAnythingCheaper)
{
    LoadContext near = ctxAt(0.5);
    LoadContext far = ctxAt(0.5);
    far.far_mem_extra_ns = 1500.0;
    const auto near_cost =
        messageCost(GetParam(), Ulp::kTlsEncrypt, 16384, near);
    const auto far_cost =
        messageCost(GetParam(), Ulp::kTlsEncrypt, 16384, far);
    if (near_cost.supported) {
        EXPECT_GE(far_cost.cpu_cycles, near_cost.cpu_cycles)
            << placementName(GetParam());
    }
}

TEST(Placement, CpuCostGrowsWithContention)
{
    const auto quiet = messageCost(PlacementKind::kCpu, Ulp::kTlsEncrypt,
                                   16384, ctxAt(0.0));
    const auto thrashed = messageCost(PlacementKind::kCpu,
                                      Ulp::kTlsEncrypt, 16384, ctxAt(1.0));
    EXPECT_GT(thrashed.cpu_cycles, quiet.cpu_cycles * 1.3);
    EXPECT_GT(thrashed.dram_bytes, quiet.dram_bytes);
}

TEST(Placement, SmartDimmTrafficIsContentionIndependent)
{
    const auto quiet = messageCost(PlacementKind::kSmartDimm,
                                   Ulp::kTlsEncrypt, 16384, ctxAt(0.0));
    const auto thrashed = messageCost(PlacementKind::kSmartDimm,
                                      Ulp::kTlsEncrypt, 16384, ctxAt(1.0));
    // Inline offload: one pass in + one out, no re-read terms.
    EXPECT_DOUBLE_EQ(quiet.dram_bytes, thrashed.dram_bytes);
    EXPECT_DOUBLE_EQ(quiet.dram_bytes, 2.0 * 16384);
}

TEST(Placement, SmartDimmBeatsCpuUnderContention)
{
    const auto ctx = ctxAt(0.8);
    const auto cycles = [&](PlacementKind kind, Ulp ulp,
                            std::size_t bytes) {
        return messageCost(kind, ulp, bytes, ctx).cpu_cycles;
    };
    EXPECT_LT(cycles(PlacementKind::kSmartDimm, Ulp::kTlsEncrypt, 4096),
              cycles(PlacementKind::kCpu, Ulp::kTlsEncrypt, 4096));
    EXPECT_LT(cycles(PlacementKind::kSmartDimm, Ulp::kDeflate, 4000),
              cycles(PlacementKind::kCpu, Ulp::kDeflate, 4000));
}

TEST(Placement, CpuWinsWhenQuiet)
{
    // With no contention the copy/flush overhead makes offload a net
    // loss for small TLS records — the adaptive policy's raison
    // d'etre (Sec. V-C).
    const auto ctx = ctxAt(0.0);
    EXPECT_LT(messageCost(PlacementKind::kCpu, Ulp::kTlsEncrypt, 4096, ctx)
                  .cpu_cycles,
              messageCost(PlacementKind::kSmartDimm, Ulp::kTlsEncrypt,
                          4096, ctx)
                  .cpu_cycles);
}

TEST(Placement, QatPaysFixedTaxPerOffload)
{
    const auto small = messageCost(PlacementKind::kQuickAssist,
                                   Ulp::kTlsEncrypt, 1024, ctxAt(0.2));
    const auto big = messageCost(PlacementKind::kQuickAssist,
                                 Ulp::kTlsEncrypt, 16384, ctxAt(0.2));
    // Cost per byte must be far worse for the small offload.
    EXPECT_GT(small.cpu_cycles / 1024.0,
              2.0 * big.cpu_cycles / 16384.0);
    EXPECT_GT(small.latency_us, 10.0); // blocking round trip
}

TEST(Placement, SmartNicDegradesWithLossEvents)
{
    LoadContext lossless = ctxAt(0.5);
    LoadContext lossy = ctxAt(0.5);
    lossy.loss_events_per_message = 0.1;
    EXPECT_GT(messageCost(PlacementKind::kSmartNic, Ulp::kTlsEncrypt,
                          16384, lossy)
                  .cpu_cycles,
              messageCost(PlacementKind::kSmartNic, Ulp::kTlsEncrypt,
                          16384, lossless)
                      .cpu_cycles *
                  1.2);
}

TEST(Placement, DeflateOutputRatioShrinksSmartDimmTraffic)
{
    LoadContext ctx = ctxAt(0.5);
    ctx.output_ratio = 0.38;
    const auto cost =
        messageCost(PlacementKind::kSmartDimm, Ulp::kDeflate, 4000, ctx);
    EXPECT_NEAR(cost.dram_bytes, 4000 * 1.38, 1.0);
}

// ---------------------------------------------------------------------------
// Pinned outputs, printed with %.17g from the model as it stood when
// the test was written. Any change to a cost function's arithmetic,
// including its floating-point operation order, fails here. The model
// calls std::pow, so the last bit depends on libm; EXPECT_DOUBLE_EQ
// allows 4 ULPs.
// ---------------------------------------------------------------------------

struct PinnedCost
{
    PlacementKind kind;
    Ulp ulp;
    std::size_t bytes;
    double cpu_cycles;
    double dram_bytes;
    double latency_us;
    bool supported;
};

void
expectPinned(const PinnedCost &pin, const LoadContext &ctx)
{
    const auto cost = messageCost(pin.kind, pin.ulp, pin.bytes, ctx);
    SCOPED_TRACE(::testing::Message()
                 << placementName(pin.kind) << " ulp "
                 << static_cast<int>(pin.ulp) << " " << pin.bytes << " B");
    EXPECT_DOUBLE_EQ(cost.cpu_cycles, pin.cpu_cycles);
    EXPECT_DOUBLE_EQ(cost.dram_bytes, pin.dram_bytes);
    EXPECT_DOUBLE_EQ(cost.latency_us, pin.latency_us);
    EXPECT_EQ(cost.supported, pin.supported);
}

/** Every placement x {TLS, Deflate} x {4, 16, 64 KB} at leak 0.5. */
const PinnedCost kPinnedAtHalfLeak[] = {
    {PlacementKind::kCpu, Ulp::kTlsEncrypt, 4096,
     14200, 14336, 5.0714285714285712, true},
    {PlacementKind::kCpu, Ulp::kTlsEncrypt, 16384,
     39917.805031492273, 57344, 14.25635893981867, true},
    {PlacementKind::kCpu, Ulp::kTlsEncrypt, 65536,
     135852.79999999999, 229376, 48.518857142857136, true},
    {PlacementKind::kCpu, Ulp::kDeflate, 4096,
     158660, 51200, 56.664285714285711, true},
    {PlacementKind::kCpu, Ulp::kDeflate, 16384,
     589346.44654104381, 204800, 210.4808737646585, true},
    {PlacementKind::kCpu, Ulp::kDeflate, 65536,
     2272320, 819200, 811.54285714285709, true},
    {PlacementKind::kSmartNic, Ulp::kTlsEncrypt, 4096,
     14840.533922651934, 2457.5999999999999, 5.382110686661405, true},
    {PlacementKind::kSmartNic, Ulp::kTlsEncrypt, 16384,
     30188.045124577839, 9830.3999999999996, 11.10912468734923, true},
    {PlacementKind::kSmartNic, Ulp::kTlsEncrypt, 65536,
     116669.02276243093, 39321.599999999999, 42.978228129439621, true},
    {PlacementKind::kSmartNic, Ulp::kDeflate, 4096,
     0, 0, 0, false},
    {PlacementKind::kSmartNic, Ulp::kDeflate, 16384,
     0, 0, 0, false},
    {PlacementKind::kSmartNic, Ulp::kDeflate, 65536,
     0, 0, 0, false},
    {PlacementKind::kQuickAssist, Ulp::kTlsEncrypt, 4096,
     89185.386666666658, 12288, 28.999352380952381, true},
    {PlacementKind::kQuickAssist, Ulp::kTlsEncrypt, 16384,
     108871.09383651719, 49152, 31.354552380952384, true},
    {PlacementKind::kQuickAssist, Ulp::kTlsEncrypt, 65536,
     415068.58666666667, 196608, 125.41820952380954, true},
    {PlacementKind::kQuickAssist, Ulp::kDeflate, 4096,
     173376.53333333333, 12288, 59.067619047619054, true},
    {PlacementKind::kQuickAssist, Ulp::kDeflate, 16384,
     682635.68050318374, 49152, 236.27047619047622, true},
    {PlacementKind::kQuickAssist, Ulp::kDeflate, 65536,
     2710126.9333333331, 196608, 945.08190476190487, true},
    {PlacementKind::kSmartDimm, Ulp::kTlsEncrypt, 4096,
     6386.8000000000002, 8192, 2.2810000000000001, true},
    {PlacementKind::kSmartDimm, Ulp::kTlsEncrypt, 16384,
     24797.200000000001, 32768, 8.8561428571428582, true},
    {PlacementKind::kSmartDimm, Ulp::kTlsEncrypt, 65536,
     99188.800000000003, 131072, 35.424571428571433, true},
    {PlacementKind::kSmartDimm, Ulp::kDeflate, 4096,
     8306.7999999999993, 8192, 2.9667142857142856, true},
    {PlacementKind::kSmartDimm, Ulp::kDeflate, 16384,
     32477.200000000001, 32768, 11.599, true},
    {PlacementKind::kSmartDimm, Ulp::kDeflate, 65536,
     129908.8, 131072, 46.396000000000001, true},
    {PlacementKind::kCxlMem, Ulp::kTlsEncrypt, 4096,
     13730.799999999999, 4096, 5.0318571428571426, true},
    {PlacementKind::kCxlMem, Ulp::kTlsEncrypt, 16384,
     44093.199999999997, 16384, 16.259571428571427, true},
    {PlacementKind::kCxlMem, Ulp::kTlsEncrypt, 65536,
     166292.79999999999, 65536, 61.438285714285712, true},
    {PlacementKind::kCxlMem, Ulp::kDeflate, 4096,
     15650.799999999999, 4096, 5.7175714285714285, true},
    {PlacementKind::kCxlMem, Ulp::kDeflate, 16384,
     51773.199999999997, 16384, 19.00242857142857, true},
    {PlacementKind::kCxlMem, Ulp::kDeflate, 65536,
     197012.79999999999, 65536, 72.409714285714287, true},
};

/** SmartNIC TLS-16K at leak 0.5 with 0.1 loss events per message. */
const PinnedCost kPinnedLossyNic =
    {PlacementKind::kSmartNic, Ulp::kTlsEncrypt, 16384,
     49729.165124577841, 22937.599999999999, 18.08809611592066, true};

/** Every placement, TLS-16K at leak 0.5 with the pages homed 600 ns
 *  away (far_mem_extra_ns). */
const PinnedCost kPinnedFarHomed[] = {
    {PlacementKind::kCpu, Ulp::kTlsEncrypt, 16384,
     198816.11446575006, 57344, 71.005755166339299, true},
    {PlacementKind::kSmartNic, Ulp::kTlsEncrypt, 16384,
     57427.755313307745, 9830.3999999999996, 20.837592611895623, true},
    {PlacementKind::kQuickAssist, Ulp::kTlsEncrypt, 16384,
     245069.64478016671, 49152, 31.354552380952384, true},
    {PlacementKind::kSmartDimm, Ulp::kTlsEncrypt, 16384,
     76406.799999999988, 32768, 27.288142857142851, true},
    {PlacementKind::kCxlMem, Ulp::kTlsEncrypt, 16384,
     44093.199999999997, 16384, 16.259571428571427, true},
};

TEST(Placement, PinnedCosts)
{
    constexpr std::size_t kKinds = std::size(kAllPlacementKinds);
    static_assert(std::size(kPinnedAtHalfLeak) == kKinds * 2 * 3);
    static_assert(std::size(kPinnedFarHomed) == kKinds);

    for (const auto &pin : kPinnedAtHalfLeak)
        expectPinned(pin, ctxAt(0.5));

    LoadContext lossy = ctxAt(0.5);
    lossy.loss_events_per_message = 0.1;
    expectPinned(kPinnedLossyNic, lossy);

    LoadContext far = ctxAt(0.5);
    far.far_mem_extra_ns = 600.0;
    for (const auto &pin : kPinnedFarHomed)
        expectPinned(pin, far);
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
        const double cpu_cycles =
            messageCost(PlacementKind::kCpu, Ulp::kTlsEncrypt, 4096, ctx,
                        model)
                .cpu_cycles;
        const double cxl_cycles =
            messageCost(PlacementKind::kCxlMem, Ulp::kTlsEncrypt, 4096,
                        ctx, model)
                .cpu_cycles;
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
    const auto near_cost = messageCost(PlacementKind::kCxlMem,
                                       Ulp::kTlsEncrypt, 4096, ctx,
                                       near_model);
    const auto far_cost = messageCost(PlacementKind::kCxlMem,
                                      Ulp::kTlsEncrypt, 4096, ctx,
                                      far_model);
    // A slower link costs cycles and latency, but the tier stays
    // near-data: the host-visible traffic does not change.
    EXPECT_GT(far_cost.cpu_cycles, near_cost.cpu_cycles);
    EXPECT_GT(far_cost.latency_us, near_cost.latency_us);
    EXPECT_DOUBLE_EQ(far_cost.dram_bytes, near_cost.dram_bytes);
}

TEST(CxlMem, TrafficIsContentionIndependentLikeSmartDimm)
{
    const auto quiet = messageCost(PlacementKind::kCxlMem,
                                   Ulp::kTlsEncrypt, 16384, ctxAt(0.0));
    const auto thrashed = messageCost(PlacementKind::kCxlMem,
                                      Ulp::kTlsEncrypt, 16384, ctxAt(1.0));
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
