/**
 * @file
 * Bank Table (Fig. 5): one entry per bank in the rank recording the
 * currently active row, updated by RAS (activate) and Precharge
 * commands. Together with the Addr Remap block it lets the buffer
 * device regenerate the physical address of every CAS — essential
 * because BG/BA/Row/Col alone cannot identify the OS page.
 *
 * Concurrency contract: single-owner. The table mirrors one channel's
 * command bus, and a channel is driven by exactly one thread's
 * EventQueue; onCommand() spot-checks the contract.
 */

#ifndef SD_SMARTDIMM_BANK_TABLE_H
#define SD_SMARTDIMM_BANK_TABLE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/log.h"
#include "common/thread_annotations.h"
#include "mem/address_map.h"
#include "mem/dram_command.h"

namespace sd::smartdimm {

/** Active-row tracking for every bank behind this buffer device. */
class BankTable
{
  public:
    explicit BankTable(const mem::DramGeometry &geometry)
        : rows_(geometry.totalBanks())
    {
    }

    /** Apply a RAS/PRE command. */
    void
    onCommand(const mem::DdrCommand &cmd)
    {
        owner_.check();
        const unsigned bank = cmd.coord.flatBank();
        switch (cmd.type) {
          case mem::DdrCommandType::kActivate:
            rows_[bank] = cmd.coord.row;
            break;
          case mem::DdrCommandType::kPrecharge:
            rows_[bank].reset();
            break;
          default:
            break;
        }
    }

    /** @return the open row for the CAS's bank (must be open). */
    std::uint64_t
    activeRow(const mem::DramCoord &coord) const
    {
        const unsigned bank = coord.flatBank();
        SD_ASSERT(rows_[bank].has_value(),
                  "CAS to a closed bank %u — controller bug", bank);
        return *rows_[bank];
    }

  private:
    /** Runtime spot-check of the single-owner contract. */
    SingleOwnerChecker owner_;
    std::vector<std::optional<std::uint64_t>> rows_;
};

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_BANK_TABLE_H
