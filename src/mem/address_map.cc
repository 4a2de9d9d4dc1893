#include "mem/address_map.h"

#include "common/bitops.h"
#include "common/log.h"

namespace sd::mem {

namespace {

// Channel and DIMM counts are extracted by div/mod, so they may be
// arbitrary; the intra-DIMM fields stay bit-sliced and must be powers
// of two.
static_assert(isPowerOf2(kRanks) && isPowerOf2(kBankGroups) &&
                  isPowerOf2(kBanksPerGroup) && isPowerOf2(kRowBytes),
              "DRAM geometry fields must be powers of two");

constexpr unsigned kColBits = floorLog2(kLinesPerRow);
constexpr unsigned kBankBits = floorLog2(kBanksPerGroup);
constexpr unsigned kBgBits = floorLog2(kBankGroups);
constexpr unsigned kRankBits = floorLog2(kRanks);

} // namespace

AddressMap::AddressMap(const DramGeometry &geometry) : geometry_(geometry)
{
    SD_ASSERT(geometry.channels >= 1 && geometry.dimms_per_channel >= 1,
              "geometry needs at least one channel and one DIMM");
    SD_ASSERT(geometry.channel_bytes % geometry.dimms_per_channel == 0,
              "channel capacity must split evenly across DIMM slots");
    channel_lines_ = geometry.channel_bytes / kCacheLineSize;
    dimm_lines_ = geometry.dimmBytes() / kCacheLineSize;
}

DramCoord
AddressMap::decompose(Addr addr) const
{
    std::uint64_t v = addr >> kLineBits; // line index
    const std::uint64_t channels = geometry_.channels;
    DramCoord coord;

    if (channels > 1) {
        coord.channel = narrowIdx(v / channel_lines_, channels);
        v %= channel_lines_;
    }

    if (geometry_.dimms_per_channel > 1) {
        coord.dimm =
            narrowIdx(v / dimm_lines_, geometry_.dimms_per_channel);
        v %= dimm_lines_;
    }

    coord.col = bits(v, 0, kColBits);
    v >>= kColBits;
    coord.bank = static_cast<unsigned>(bits(v, 0, kBankBits));
    v >>= kBankBits;
    coord.bank_group = static_cast<unsigned>(bits(v, 0, kBgBits));
    v >>= kBgBits;
    coord.rank = static_cast<unsigned>(bits(v, 0, kRankBits));
    v >>= kRankBits;
    coord.row = v;
    return coord;
}

Addr
AddressMap::compose(const DramCoord &coord) const
{
    const std::uint64_t channels = geometry_.channels;
    std::uint64_t v = coord.row;
    v = (v << kRankBits) | coord.rank;
    v = (v << kBgBits) | coord.bank_group;
    v = (v << kBankBits) | coord.bank;
    v = (v << kColBits) | coord.col;

    if (geometry_.dimms_per_channel > 1)
        v += static_cast<std::uint64_t>(coord.dimm) * dimm_lines_;

    if (channels > 1)
        v += static_cast<std::uint64_t>(coord.channel) * channel_lines_;
    return v << kLineBits;
}

} // namespace sd::mem
