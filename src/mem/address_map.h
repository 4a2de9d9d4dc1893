/**
 * @file
 * Physical-address <-> DRAM-coordinate mapping. SmartDIMM's Addr Remap
 * block (Fig. 5) performs the inverse mapping on-DIMM: given
 * (BG, BA, Row, Col) from the command bus and the Bank Table, it
 * regenerates the physical address so the Translation Table can be
 * indexed at OS-page granularity.
 */

#ifndef SD_MEM_ADDRESS_MAP_H
#define SD_MEM_ADDRESS_MAP_H

#include <cstdint>

#include "common/types.h"
#include "mem/dram_config.h"

namespace sd::mem {

/** Decomposed DRAM coordinates of one 64-byte burst. */
struct DramCoord
{
    unsigned channel = 0;
    unsigned dimm = 0; ///< DIMM slot within the channel
    unsigned rank = 0;
    unsigned bank_group = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    std::uint64_t col = 0; ///< 64 B column index within the row

    bool operator==(const DramCoord &) const = default;

    /**
     * Flat bank id within a channel (dimm-major, then rank-major).
     * Each DIMM's chips hold independent row buffers, so the
     * controller's bank state must not alias banks across DIMM slots.
     */
    unsigned
    flatBank() const
    {
        return ((dimm * kRanks + rank) * kBankGroups + bank_group) *
                   kBanksPerGroup +
               bank;
    }
};

/**
 * Bidirectional address mapper. The layout (from LSB) is:
 *   [6b line offset][col][bank][bank group][rank][row][dimm][channel]
 * Each channel owns a contiguous channel_bytes window and each DIMM a
 * contiguous dimmBytes() window inside it, so every buffer device sees
 * whole pages of its own window: a CompCpy's sbuf/dbuf pages never
 * straddle two devices. Channel and DIMM counts need not be powers of
 * two (both are div/mod capacity partitions); with one channel the
 * channel field is always 0. Bank bits sit below the row so that
 * sequential 4 KB pages stripe across banks — the open-page-friendly
 * layout servers use.
 */
class AddressMap
{
  public:
    explicit AddressMap(const DramGeometry &geometry);

    /** Decompose a physical address (line-aligned internally). */
    DramCoord decompose(Addr addr) const;

    /**
     * Recompose a physical address from coordinates — the on-DIMM
     * Addr Remap operation. Inverse of decompose for every line.
     */
    Addr compose(const DramCoord &coord) const;

    const DramGeometry &geometry() const { return geometry_; }

  private:
    DramGeometry geometry_;
    std::uint64_t channel_lines_; ///< per-channel window, in lines
    std::uint64_t dimm_lines_;    ///< per-DIMM capacity slice, in lines
};

} // namespace sd::mem

#endif // SD_MEM_ADDRESS_MAP_H
