/**
 * @file
 * SoA bank-state table for the memory controller's FR-FCFS scan.
 *
 * The scheduler's hottest loop asks one question per queued request:
 * "is this request a row hit?" — i.e. does the request's bank have
 * its row open. The seed kept per-bank state as an array of structs
 * (open flag, row, ready/act ticks), so every probe dragged a full
 * 32-byte Bank record through the cache to read 9 bytes of it. This
 * table stores each field in its own contiguous vector; the scan
 * touches only the open-row column (8 bytes per bank, with the
 * closed state folded into a sentinel row value), and the timing
 * columns are read only for the single request the pass actually
 * issues.
 *
 * A bank's open row changes only on ACT (activate()): the controller
 * folds each PRE into the ACT that follows it, so a bank never returns
 * to kClosed once opened. The FR-FCFS scan's resume point relies on
 * that: a queued key found to miss stays a miss until the next ACT.
 *
 * Like the struct it replaces, this is plain controller-private
 * state: no concurrency contract beyond the controller's own
 * (single-owner via its EventQueue).
 */

#ifndef SD_MEM_BANK_STATE_H
#define SD_MEM_BANK_STATE_H

#include <cstdint>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace sd::mem {

/** Per-bank open-row and timing state, struct-of-arrays layout. */
class BankStateSoA
{
  public:
    /** Sentinel open-row value meaning "bank precharged / closed". */
    static constexpr std::uint64_t kClosed = ~std::uint64_t{0};

    explicit BankStateSoA(std::size_t banks)
        : open_row_(banks, kClosed), ready_at_(banks, 0),
          act_at_(banks, 0)
    {
    }

    std::size_t size() const { return open_row_.size(); }

    /** @return true when the bank has any row open. */
    bool open(std::size_t bank) const { return open_row_[bank] != kClosed; }

    /**
     * The FR-FCFS probe: one 8-byte load, true iff the bank is open
     * *and* holds @p row (kClosed never equals a real row number).
     */
    bool
    rowHit(std::size_t bank, std::uint64_t row) const
    {
        return open_row_[bank] == row;
    }

    /** Open row of @p bank. Precondition: open(bank). */
    std::uint64_t row(std::size_t bank) const { return open_row_[bank]; }

    /** Earliest tick the bank accepts its next column command. */
    Tick readyAt(std::size_t bank) const { return ready_at_[bank]; }
    void setReadyAt(std::size_t bank, Tick t) { ready_at_[bank] = t; }

    /** Tick of the bank's last ACT (for tRAS accounting). */
    Tick actAt(std::size_t bank) const { return act_at_[bank]; }

    /** Apply an ACT: open @p row, stamp timing columns. */
    void
    activate(std::size_t bank, std::uint64_t row, Tick act_at,
             Tick ready_at)
    {
        SD_ASSERT(row != kClosed, "row id collides with closed sentinel");
        open_row_[bank] = row;
        act_at_[bank] = act_at;
        ready_at_[bank] = ready_at;
    }

  private:
    std::vector<std::uint64_t> open_row_; ///< kClosed until the first ACT
    std::vector<Tick> ready_at_;
    std::vector<Tick> act_at_;
};

} // namespace sd::mem

#endif // SD_MEM_BANK_STATE_H
