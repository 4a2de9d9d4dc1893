/**
 * @file
 * Units for the trace layer: LogHistogram bucket math, StatsRegistry
 * provider collection and dump formats, and the Tracer's span/event
 * recording, page attribution, capacity cap and disabled-cost
 * contract.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/stats.h"
#include "trace/trace.h"

namespace {

using sd::LogHistogram;
using sd::Tick;
using sd::trace::Stage;
using sd::trace::StatsBlock;
using sd::trace::StatsRegistry;
using sd::trace::Tracer;

// ----- LogHistogram ---------------------------------------------------------

TEST(LogHistogram, EmptyIsInert)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(LogHistogram, SmallValuesAreExact)
{
    LogHistogram h;
    for (std::uint64_t v = 0; v < 8; ++v)
        h.sample(v);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 7u);
    EXPECT_EQ(h.percentile(0.01), 0u);
    EXPECT_EQ(h.percentile(1.0), 7u);
}

TEST(LogHistogram, PercentileWithinRelativeErrorBound)
{
    // Sub-bucketed octaves guarantee <= 1/8 relative error.
    LogHistogram h;
    for (std::uint64_t v = 1; v <= 100000; ++v)
        h.sample(v);
    for (double q : {0.10, 0.50, 0.90, 0.99}) {
        const auto exact =
            static_cast<double>(1 + (100000 - 1) * q);
        const auto approx = static_cast<double>(h.percentile(q));
        EXPECT_NEAR(approx, exact, exact / 8.0 + 1.0) << "q " << q;
    }
}

TEST(LogHistogram, PercentileNeverExceedsMax)
{
    LogHistogram h;
    h.sample(1000);
    h.sample(1001);
    EXPECT_EQ(h.percentile(1.0), 1001u);
    EXPECT_LE(h.percentile(0.5), 1001u);
}

TEST(LogHistogram, MeanAndSumTrackSamples)
{
    LogHistogram h;
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_EQ(h.sum(), 60u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(LogHistogram, HugeValuesDoNotOverflowBuckets)
{
    LogHistogram h;
    h.sample(~0ULL);
    h.sample(1ULL << 62);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.percentile(1.0), ~0ULL);
}

// ----- StatsRegistry --------------------------------------------------------

TEST(StatsRegistry, CollectsProvidersInInsertionOrder)
{
    StatsRegistry registry;
    registry.add("b", [](StatsBlock &blk) { blk.scalar("x", 1); });
    registry.add("a", [](StatsBlock &blk) { blk.scalar("y", 2); });

    const auto rows = registry.collect();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].first, "b");
    EXPECT_EQ(rows[1].first, "a");
    ASSERT_EQ(rows[1].second.entries().size(), 1u);
    EXPECT_EQ(rows[1].second.entries()[0].first, "y");
}

TEST(StatsRegistry, ReRegisteringReplaces)
{
    StatsRegistry registry;
    registry.add("c", [](StatsBlock &blk) { blk.scalar("v", 1); });
    registry.add("c", [](StatsBlock &blk) { blk.scalar("v", 2); });
    const auto rows = registry.collect();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].second.entries()[0].second, 2.0);
}

TEST(StatsRegistry, RemoveDropsProvider)
{
    StatsRegistry registry;
    registry.add("gone", [](StatsBlock &blk) { blk.scalar("v", 1); });
    registry.remove("gone");
    EXPECT_TRUE(registry.collect().empty());
}

TEST(StatsRegistry, JsonAndCsvDumpsCarryEveryRow)
{
    StatsRegistry registry;
    registry.add("mod", [](StatsBlock &blk) {
        blk.scalar("count", 3);
        blk.scalar("ratio", 0.5);
    });

    std::ostringstream json;
    registry.dumpJson(json);
    EXPECT_NE(json.str().find("\"mod\""), std::string::npos);
    EXPECT_NE(json.str().find("\"count\": 3"), std::string::npos);
    EXPECT_NE(json.str().find("\"ratio\": 0.5"), std::string::npos);

    std::ostringstream csv;
    registry.dumpCsv(csv);
    EXPECT_NE(csv.str().find("mod,count,3"), std::string::npos);
    EXPECT_NE(csv.str().find("mod,ratio,0.5"), std::string::npos);
}

TEST(StatsRegistry, HistogramExpandsToSummaryRows)
{
    LogHistogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    StatsBlock blk;
    blk.hist("lat", h);

    bool saw_count = false, saw_p99 = false;
    for (const auto &[name, value] : blk.entries()) {
        if (name == "lat.count") {
            saw_count = true;
            EXPECT_EQ(value, 100.0);
        }
        if (name == "lat.p99")
            saw_p99 = true;
    }
    EXPECT_TRUE(saw_count);
    EXPECT_TRUE(saw_p99);
}

// ----- Tracer ---------------------------------------------------------------

/** Local tracer instance so tests do not disturb the global one. */
struct TracerTest : ::testing::Test
{
    Tracer tr;
};

TEST_F(TracerTest, DisabledRecordsNothing)
{
    // The enabled flag is the one off switch: every recording entry
    // point must honour it, DDR mirroring included after a disable().
    tr.enable(/*capture_ddr=*/true);
    tr.disable();
    EXPECT_EQ(tr.beginSpan("tls", 0, 0, 4096, 10), 0u);
    tr.endSpan(1, 20);
    tr.bindPage(5, 1);
    tr.event(1, Stage::kCopy, 10, 0);
    tr.pageEvent(5, Stage::kUse, 10, 0);
    tr.faultEvent(5, 10, 5 * sd::kPageSize);
    const Tracer::DdrRecord ddr[] = {{Stage::kDdrRead, 10, 0x40},
                                     {Stage::kDdrWrite, 11, 0x80}};
    tr.ddrEvents(ddr, 2);
    EXPECT_TRUE(tr.spans().empty());
    EXPECT_TRUE(tr.events().empty());
    EXPECT_EQ(tr.spanOfPage(5), 0u);
}

TEST_F(TracerTest, SpanLifecycleAndStageQueries)
{
    tr.enable();
    const auto span = tr.beginSpan("tls", 0x1000, 0x2000, 4096, 100);
    ASSERT_NE(span, 0u);
    tr.event(span, Stage::kFlush, 110, 0x1000);
    tr.event(span, Stage::kCopy, 120, 0x2000);
    tr.event(span, Stage::kCopy, 130, 0x2040);

    EXPECT_TRUE(tr.spanHasStage(span, Stage::kFlush));
    EXPECT_TRUE(tr.spanHasStage(span, Stage::kCopy));
    EXPECT_FALSE(tr.spanHasStage(span, Stage::kUse));
    EXPECT_EQ(tr.spanEvents(span).size(), 3u);

    ASSERT_EQ(tr.spans().size(), 1u);
    EXPECT_EQ(tr.spans()[0].bytes, 4096u);
    EXPECT_EQ(tr.spans()[0].begin, Tick{100});
}

TEST_F(TracerTest, PageBindingAttributesDeviceEvents)
{
    tr.enable();
    const auto span = tr.beginSpan("deflate", 0, 0, 4096, 0);
    tr.bindPage(7, span);
    tr.pageEvent(7, Stage::kTransform, 50, 7 * sd::kPageSize);
    tr.pageEvent(8, Stage::kTransform, 60, 8 * sd::kPageSize); // unbound

    EXPECT_EQ(tr.spanEvents(span).size(), 1u);
    EXPECT_EQ(tr.spanOfPage(7), span);
    EXPECT_EQ(tr.spanOfPage(8), 0u);
    // Unattributed non-DDR events are dropped entirely.
    EXPECT_EQ(tr.events().size(), 1u);
}

TEST_F(TracerTest, DdrMirrorIsOptInAndKeepsUnattributed)
{
    const Tracer::DdrRecord rd{Stage::kDdrRead, 10, 0x40};
    tr.enable(/*capture_ddr=*/false);
    tr.ddrEvents(&rd, 1);
    EXPECT_TRUE(tr.events().empty());

    tr.enable(/*capture_ddr=*/true);
    tr.ddrEvents(&rd, 1);
    ASSERT_EQ(tr.events().size(), 1u);
    EXPECT_EQ(tr.events()[0].span, 0u); // recorded though unattributed
}

TEST_F(TracerTest, EventCapCountsDrops)
{
    tr.enable();
    tr.setMaxEvents(2);
    const auto span = tr.beginSpan("tls", 0, 0, 64, 0);
    tr.event(span, Stage::kCopy, 1, 0);
    tr.event(span, Stage::kCopy, 2, 0);
    tr.event(span, Stage::kCopy, 3, 0);
    EXPECT_EQ(tr.events().size(), 2u);
    EXPECT_EQ(tr.droppedEvents(), 1u);
}

TEST_F(TracerTest, ClearResetsCapturedState)
{
    tr.enable();
    const auto span = tr.beginSpan("tls", 0, 0, 64, 0);
    tr.bindPage(3, span);
    tr.event(span, Stage::kCopy, 1, 0);
    tr.clear();
    EXPECT_TRUE(tr.spans().empty());
    EXPECT_TRUE(tr.events().empty());
    EXPECT_EQ(tr.spanOfPage(3), 0u);
    EXPECT_TRUE(tr.enabled()) << "clear keeps the enable state";
}

TEST_F(TracerTest, JsonDumpContainsSpanAndStageSummaries)
{
    tr.enable();
    const auto span = tr.beginSpan("tls", 0x1000, 0x2000, 4096, 100);
    tr.event(span, Stage::kFlush, 150, 0x1000);
    tr.event(span, Stage::kUse, 400, 0x2000);

    StatsRegistry registry;
    registry.add("mod", [](StatsBlock &blk) { blk.scalar("n", 1); });

    std::ostringstream os;
    tr.dumpJson(os, &registry);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"kind\": \"tls\""), std::string::npos);
    EXPECT_NE(out.find("\"flush\""), std::string::npos);
    EXPECT_NE(out.find("\"use\""), std::string::npos);
    EXPECT_NE(out.find("\"stats\""), std::string::npos);
    EXPECT_NE(out.find("\"mod\""), std::string::npos);

    std::ostringstream csv;
    tr.dumpCsv(csv);
    EXPECT_NE(csv.str().find("tick,span,stage,address"),
              std::string::npos);
    EXPECT_NE(csv.str().find("150,1,flush,4096"), std::string::npos);
}

TEST_F(TracerTest, StageNamesAreStable)
{
    // Dump formats and golden traces depend on these strings.
    EXPECT_STREQ(sd::trace::stageName(Stage::kFlush), "flush");
    EXPECT_STREQ(sd::trace::stageName(Stage::kRegister), "register");
    EXPECT_STREQ(sd::trace::stageName(Stage::kCopy), "copy");
    EXPECT_STREQ(sd::trace::stageName(Stage::kTransform), "transform");
    EXPECT_STREQ(sd::trace::stageName(Stage::kStage), "stage");
    EXPECT_STREQ(sd::trace::stageName(Stage::kRecycle), "recycle");
    EXPECT_STREQ(sd::trace::stageName(Stage::kForceRecycle),
                 "force_recycle");
    EXPECT_STREQ(sd::trace::stageName(Stage::kUse), "use");
    EXPECT_STREQ(sd::trace::stageName(Stage::kAlert), "alert");
    EXPECT_STREQ(sd::trace::stageName(Stage::kDdrRead), "ddr_rd");
    EXPECT_STREQ(sd::trace::stageName(Stage::kDdrWrite), "ddr_wr");
}

} // namespace
