/**
 * @file
 * Address mapping: decompose/compose inverse property (the on-DIMM
 * Addr Remap correctness), the capacity layout, and geometry limits.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "mem/address_map.h"

namespace {

using namespace sd;
using mem::AddressMap;
using mem::DramCoord;
using mem::DramGeometry;

TEST(AddressMap, ComposeInvertsDecomposeSingleChannel)
{
    DramGeometry g;
    g.channels = 1;
    AddressMap map(g);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = lineAlign(rng.below(g.channel_bytes));
        EXPECT_EQ(map.compose(map.decompose(addr)), addr);
    }
}

TEST(AddressMap, SingleChannelModeUsesChannelZero)
{
    DramGeometry g;
    g.channels = 1;
    AddressMap map(g);
    Rng rng(4);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(map.decompose(lineAlign(rng.below(1ULL << 34))).channel,
                  0u);
}

TEST(AddressMap, SequentialPagesStripeAcrossBanks)
{
    DramGeometry g;
    g.channels = 1;
    AddressMap map(g);
    // Consecutive rows-worth of data land in different banks before
    // reusing a bank (col bits below bank bits).
    const auto c0 = map.decompose(0);
    const auto c1 = map.decompose(mem::kRowBytes);
    EXPECT_NE(c0.flatBank(), c1.flatBank());
}

TEST(AddressMap, ComposeInvertsDecomposeCapacityInterleave)
{
    DramGeometry g;
    g.channels = 4;
    g.channel_bytes = 1ULL << 30; // keep the space walkable
    AddressMap map(g);
    Rng rng(6);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr =
            lineAlign(rng.below(g.channel_bytes * g.channels));
        EXPECT_EQ(map.compose(map.decompose(addr)), addr);
    }
}

TEST(AddressMap, ComposeInvertsDecomposeNonPow2Channels)
{
    // Channel extraction is div/mod, so 3- and 6-channel systems (the
    // paper's testbed has 6 DIMMs) must round-trip exactly too.
    for (const unsigned channels : {3u, 5u, 6u}) {
        DramGeometry g;
        g.channels = channels;
        g.channel_bytes = 1ULL << 30;
        AddressMap map(g);
        Rng rng(7 + channels);
        for (int i = 0; i < 1000; ++i) {
            const Addr addr =
                lineAlign(rng.below(g.channel_bytes * g.channels));
            EXPECT_EQ(map.compose(map.decompose(addr)), addr)
                << channels << " channels";
        }
    }
}

TEST(AddressMap, CapacityInterleaveChannelWindows)
{
    DramGeometry g;
    g.channels = 3;
    g.channel_bytes = 1ULL << 30;
    AddressMap map(g);
    for (unsigned ch = 0; ch < g.channels; ++ch) {
        const Addr base = ch * g.channel_bytes;
        EXPECT_EQ(map.decompose(base).channel, ch);
        EXPECT_EQ(
            map.decompose(base + g.channel_bytes - kCacheLineSize)
                .channel,
            ch);
    }
}

TEST(AddressMap, ComposeInvertsDecomposeMultiDimm)
{
    for (const unsigned dimms : {2u, 3u, 4u}) {
        DramGeometry g;
        g.channels = 2;
        g.dimms_per_channel = dimms;
        // Capacity must split evenly across the DIMM slots.
        g.channel_bytes = dimms * (256ULL << 20);
        AddressMap map(g);
        Rng rng(11 + dimms);
        for (int i = 0; i < 1500; ++i) {
            const Addr addr =
                lineAlign(rng.below(g.channel_bytes * g.channels));
            const auto coord = map.decompose(addr);
            EXPECT_LT(coord.dimm, dimms);
            EXPECT_EQ(map.compose(coord), addr);
        }
    }
}

TEST(AddressMap, DimmIsCapacityPartitionOfChannel)
{
    DramGeometry g;
    g.channels = 2;
    g.dimms_per_channel = 2;
    g.channel_bytes = 1ULL << 30;
    AddressMap map(g);
    for (unsigned ch = 0; ch < g.channels; ++ch)
        for (unsigned d = 0; d < g.dimms_per_channel; ++d) {
            const Addr base =
                ch * g.channel_bytes + d * g.dimmBytes();
            const auto lo = map.decompose(base);
            const auto hi = map.decompose(base + g.dimmBytes() -
                                          kCacheLineSize);
            EXPECT_EQ(lo.channel, ch);
            EXPECT_EQ(lo.dimm, d);
            EXPECT_EQ(hi.channel, ch);
            EXPECT_EQ(hi.dimm, d);
        }
}

TEST(AddressMap, FlatBankUniqueAcrossDimms)
{
    // Each DIMM's chips hold independent row buffers: no two
    // (dimm, rank, bank group, bank) tuples may share a flat bank id,
    // and every id must fit the controller's totalBanks() state.
    DramGeometry g;
    g.dimms_per_channel = 3;
    std::vector<bool> seen(g.totalBanks(), false);
    for (unsigned d = 0; d < g.dimms_per_channel; ++d)
        for (unsigned r = 0; r < mem::kRanks; ++r)
            for (unsigned bg = 0; bg < mem::kBankGroups; ++bg)
                for (unsigned b = 0; b < mem::kBanksPerGroup; ++b) {
                    DramCoord coord;
                    coord.dimm = d;
                    coord.rank = r;
                    coord.bank_group = bg;
                    coord.bank = b;
                    const unsigned flat = coord.flatBank();
                    ASSERT_LT(flat, seen.size());
                    EXPECT_FALSE(seen[flat]);
                    seen[flat] = true;
                }
}

TEST(AddressMap, CapacityPow2MatchesSingleChannelLayoutWithinWindow)
{
    // Within channel 0's window a 4-channel map must equal a
    // 1-channel map bit-for-bit: adding channels only appends windows
    // above the first one.
    DramGeometry one;
    one.channels = 1;
    one.channel_bytes = 1ULL << 30;
    DramGeometry four = one;
    four.channels = 4;
    AddressMap single(one);
    AddressMap quad(four);
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const Addr addr = lineAlign(rng.below(one.channel_bytes));
        auto a = single.decompose(addr);
        auto b = quad.decompose(addr);
        EXPECT_EQ(b.channel, 0u);
        b.channel = a.channel; // the only field allowed to differ
        EXPECT_EQ(a, b);
    }
}

TEST(AddressMap, CoordFieldsWithinGeometry)
{
    DramGeometry g;
    g.channels = 2;
    AddressMap map(g);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const auto coord = map.decompose(
            lineAlign(rng.below(g.channel_bytes * g.channels)));
        EXPECT_LT(coord.channel, g.channels);
        EXPECT_LT(coord.rank, mem::kRanks);
        EXPECT_LT(coord.bank_group, mem::kBankGroups);
        EXPECT_LT(coord.bank, mem::kBanksPerGroup);
        EXPECT_LT(coord.col, mem::kLinesPerRow);
    }
}

} // namespace
