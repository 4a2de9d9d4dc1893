#include "mem/address_map.h"

#include "common/bitops.h"
#include "common/log.h"

namespace sd::mem {

AddressMap::AddressMap(const DramGeometry &geometry) : geometry_(geometry)
{
    // Channel and DIMM counts are extracted by div/mod, so they may be
    // arbitrary; the intra-DIMM fields stay bit-sliced and must be
    // powers of two.
    SD_ASSERT(isPowerOf2(geometry.ranks) &&
                  isPowerOf2(geometry.bank_groups) &&
                  isPowerOf2(geometry.banks_per_group) &&
                  isPowerOf2(geometry.row_bytes),
              "DRAM geometry fields must be powers of two");
    SD_ASSERT(geometry.channels >= 1 && geometry.dimms_per_channel >= 1,
              "geometry needs at least one channel and one DIMM");
    SD_ASSERT(geometry.channel_bytes % geometry.dimms_per_channel == 0,
              "channel capacity must split evenly across DIMM slots");
    channel_lines_ = geometry.channel_bytes / kCacheLineSize;
    dimm_lines_ = geometry.dimmBytes() / kCacheLineSize;
    col_bits_ = floorLog2(geometry.linesPerRow());
    bank_bits_ = floorLog2(geometry.banks_per_group);
    bg_bits_ = floorLog2(geometry.bank_groups);
    rank_bits_ = geometry.ranks > 1 ? floorLog2(geometry.ranks) : 0;
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

    coord.col = bits(v, 0, col_bits_);
    v >>= col_bits_;
    coord.bank = static_cast<unsigned>(bits(v, 0, bank_bits_));
    v >>= bank_bits_;
    coord.bank_group = static_cast<unsigned>(bits(v, 0, bg_bits_));
    v >>= bg_bits_;
    coord.rank = static_cast<unsigned>(bits(v, 0, rank_bits_));
    v >>= rank_bits_;
    coord.row = v;
    return coord;
}

Addr
AddressMap::compose(const DramCoord &coord) const
{
    const std::uint64_t channels = geometry_.channels;
    std::uint64_t v = coord.row;
    v = (v << rank_bits_) | coord.rank;
    v = (v << bg_bits_) | coord.bank_group;
    v = (v << bank_bits_) | coord.bank;
    v = (v << col_bits_) | coord.col;

    if (geometry_.dimms_per_channel > 1)
        v += static_cast<std::uint64_t>(coord.dimm) * dimm_lines_;

    if (channels > 1)
        v += static_cast<std::uint64_t>(coord.channel) * channel_lines_;
    return v << kLineBits;
}

} // namespace sd::mem
