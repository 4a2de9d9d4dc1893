/**
 * @file
 * Chunked object pool with a free list, indexed by 32-bit slot ids.
 * Simulator continuations keep their state in a slot and capture only
 * {owner, slot}, which always fits UniqueFunctionT's inline buffer, so
 * a steady-state request/response chain never touches the heap.
 *
 * Chunks of 64 objects are never reallocated: a slot's address stays
 * valid while code running under it allocates more slots and grows
 * the pool. Owners still follow two re-entrancy rules (DESIGN.md §12):
 * hold no slot reference across a call that can allocate from the
 * same pool, and free a slot before running the callback it held, so
 * a callback that issues new work reuses the slot it just released.
 *
 * A freed slot keeps its last contents; alloc() hands it back as is,
 * and the owner re-initialises the fields it uses.
 */

#ifndef SD_SIM_SLOT_POOL_H
#define SD_SIM_SLOT_POOL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sd {

template <typename T> class SlotPool
{
  public:
    T &
    operator[](std::uint32_t slot)
    {
        return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
    }

    std::uint32_t
    alloc()
    {
        if (free_.empty())
            grow();
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }

    void free(std::uint32_t slot) { free_.push_back(slot); }

    /** Slots currently allocated. */
    std::size_t
    live() const
    {
        return chunks_.size() * kChunkSize - free_.size();
    }

  private:
    static constexpr unsigned kChunkBits = 6;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

    void
    grow()
    {
        const auto base =
            static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
        chunks_.push_back(std::make_unique<T[]>(kChunkSize));
        // Reverse order: the chunk's lowest slot is handed out first.
        for (std::uint32_t i = kChunkSize; i-- > 0;)
            free_.push_back(base + i);
    }

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<std::uint32_t> free_;
};

} // namespace sd

#endif // SD_SIM_SLOT_POOL_H
