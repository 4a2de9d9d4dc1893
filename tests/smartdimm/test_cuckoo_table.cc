/**
 * @file
 * 3-ary cuckoo Translation Table (Sec. IV-C): the paper's occupancy
 * claims — below ~33% load, inserts land first-try or with a single
 * displacement and failures are effectively zero.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.h"
#include "smartdimm/cuckoo_table.h"

namespace {

using sd::Rng;
using sd::smartdimm::CuckooTable;
using sd::smartdimm::MappingKind;
using sd::smartdimm::Translation;

Translation
mapTo(std::uint32_t offset, MappingKind kind = MappingKind::kScratchpad)
{
    Translation t;
    t.kind = kind;
    t.offset = offset;
    return t;
}

TEST(CuckooTable, InsertLookupEraseRoundTrip)
{
    CuckooTable table(12288, 8);
    EXPECT_FALSE(table.lookup(100).has_value());
    EXPECT_TRUE(table.insert(100, mapTo(7)));
    const auto hit = table.lookup(100);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->offset, 7u);
    EXPECT_EQ(hit->kind, MappingKind::kScratchpad);
    EXPECT_TRUE(table.erase(100));
    EXPECT_FALSE(table.lookup(100).has_value());
    EXPECT_FALSE(table.erase(100));
}

TEST(CuckooTable, UpdateInPlace)
{
    CuckooTable table(12288, 8);
    table.insert(5, mapTo(1));
    table.insert(5, mapTo(2, MappingKind::kConfigMemory));
    const auto hit = table.lookup(5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->offset, 2u);
    EXPECT_EQ(hit->kind, MappingKind::kConfigMemory);
    EXPECT_EQ(table.size(), 1u);
}

TEST(CuckooTable, HoldsPaperScaleWorkingSet)
{
    // 4096 live mappings in 12288 buckets = 33% load (paper sizing).
    CuckooTable table(12288, 8);
    Rng rng(1);
    std::unordered_map<std::uint64_t, std::uint32_t> reference;
    while (reference.size() < 4096) {
        const std::uint64_t page = rng.next() >> 20;
        if (reference.count(page))
            continue;
        const auto offset =
            static_cast<std::uint32_t>(reference.size());
        ASSERT_TRUE(table.insert(page, mapTo(offset)));
        reference[page] = offset;
    }
    EXPECT_EQ(table.stats().failures, 0u);
    for (const auto &[page, offset] : reference) {
        const auto hit = table.lookup(page);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->offset, offset);
    }
}

TEST(CuckooTable, LowOccupancyInsertsNeedAtMostOneDisplacement)
{
    // The paper's claim: below 33% occupancy inserts succeed on the
    // first attempt or with a single displacement.
    Rng rng(2);
    for (int trial = 0; trial < 5; ++trial) {
        CuckooTable table(12288, 8);
        for (int i = 0; i < 4096; ++i)
            table.insert(rng.next() >> 16, mapTo(i));
        const auto &stats = table.stats();
        EXPECT_EQ(stats.failures, 0u);
        // Overwhelmingly first-try.
        EXPECT_GT(static_cast<double>(stats.first_try_inserts) /
                      static_cast<double>(stats.inserts),
                  0.95);
        // Average displacements per displaced insert stays tiny.
        if (stats.displaced_inserts > 0) {
            EXPECT_LT(static_cast<double>(stats.displacements) /
                          static_cast<double>(stats.inserts),
                      0.1);
        }
    }
}

TEST(CuckooTable, OccupancyTracksLiveEntries)
{
    CuckooTable table(1024, 8);
    for (int i = 0; i < 256; ++i)
        table.insert(1000 + i, mapTo(i));
    EXPECT_NEAR(table.occupancy(), 256.0 / 1024.0, 0.02);
}

TEST(CuckooTable, SequentialPagesNoPathologies)
{
    // SmartDIMM registers runs of consecutive page numbers — the hash
    // mix must spread them.
    CuckooTable table(12288, 8);
    for (std::uint64_t page = 0; page < 4000; ++page)
        ASSERT_TRUE(table.insert(page, mapTo(
            static_cast<std::uint32_t>(page))));
    EXPECT_EQ(table.stats().failures, 0u);
    for (std::uint64_t page = 0; page < 4000; ++page)
        EXPECT_TRUE(table.lookup(page).has_value());
}

TEST(CuckooTable, LookupMissesCostNothing)
{
    CuckooTable table(12288, 8);
    table.insert(1, mapTo(0));
    for (std::uint64_t page = 100; page < 1100; ++page)
        EXPECT_FALSE(table.lookup(page).has_value());
    EXPECT_EQ(table.stats().lookups, 1000u);
    EXPECT_EQ(table.stats().hits, 0u);
}

class CuckooOccupancySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CuckooOccupancySweep, FailureFreeBelowHalfLoad)
{
    const int load_pct = GetParam();
    CuckooTable table(12288, 8);
    Rng rng(42 + load_pct);
    const int inserts = 12288 * load_pct / 100;
    int ok = 0;
    for (int i = 0; i < inserts; ++i)
        ok += table.insert(rng.next() >> 13, mapTo(i));
    EXPECT_EQ(ok, inserts);
    EXPECT_EQ(table.stats().failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Loads, CuckooOccupancySweep,
                         ::testing::Values(10, 20, 33, 45));

} // namespace
