/**
 * @file
 * SmartDIMM kernel-driver analogue (Sec. V-C): owns the SmartDIMM
 * physical address window, hands out page-aligned buffer ranges to
 * userspace (the CompCpy engine), and exposes the MMIO register
 * addresses. In a real deployment the OS memory manager would own
 * this range; the prototype's manual allocator matches the paper.
 */

#ifndef SD_COMPCPY_DRIVER_H
#define SD_COMPCPY_DRIVER_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/log.h"
#include "common/types.h"
#include "smartdimm/config.h"

namespace sd::compcpy {

/**
 * Page-granular allocator over the SmartDIMM address window.
 *
 * Policy: first fit by lowest address over the released ranges, the
 * remainder of a split range staying free, else a bump from the
 * highest address handed out so far. Released ranges are never
 * coalesced with their neighbours. That is deliberate: the addresses
 * returned pick the DRAM banks and rows every CompCpy line lands on,
 * so any policy change moves the goldens and the perfbench digests.
 *
 * Index: one min-heap of start addresses per range size (in pages),
 * the sizes kept in ascending order. alloc() reads the top of each
 * heap at least as large as the request and takes the lowest, so it
 * costs O(#sizes + log n) rather than a walk over every free range
 * below the first fit. The heaps keep their capacity, so a steady
 * alloc/release pattern allocates nothing.
 *
 * Releasing a range twice, or a range that overlaps a free one, is a
 * caller bug. An address-keyed map would silently replace the free
 * range's size; a heap would hold the start twice. So release()
 * asserts that no free range starts at the address (a per-page flag),
 * which catches a range released again before it is reused.
 */
class Driver
{
  public:
    /**
     * @param base first byte of the SmartDIMM-backed physical range
     * @param bytes size of the range handed to this driver
     * @param config device config (for MMIO addresses)
     */
    Driver(Addr base, std::size_t bytes,
           const smartdimm::SmartDimmConfig &config = {})
        : base_(base), bytes_(bytes), config_(config), next_(base)
    {
        SD_ASSERT(isPageAligned(base), "driver range must be page aligned");
    }

    /** Allocate @p bytes rounded up to pages. Never returns 0. */
    Addr
    alloc(std::size_t bytes)
    {
        const std::size_t pages = divCeil(bytes, kPageSize);
        // First fit: the lowest free start among the sizes that fit.
        SizeClass *fit = nullptr;
        for (auto it = firstClass(pages); it != classes_.end(); ++it) {
            if (!it->starts.empty() &&
                (fit == nullptr || it->starts.front() < fit->starts.front()))
                fit = &*it;
        }
        if (fit != nullptr) {
            const Addr addr = fit->starts.front();
            const std::size_t left = fit->pages - pages;
            std::pop_heap(fit->starts.begin(), fit->starts.end(),
                          std::greater<>());
            fit->starts.pop_back();
            free_start_[pageIndex(addr)] = false;
            if (left > 0)
                addFree(addr + pages * kPageSize, left);
            return addr;
        }
        const std::size_t need = pages * kPageSize;
        SD_ASSERT(next_ + need <= base_ + bytes_,
                  "SmartDIMM address window exhausted");
        const Addr addr = next_;
        next_ += need;
        // The flags cover every page below next_, grown geometrically.
        if (pageIndex(next_) > free_start_.size())
            free_start_.resize(
                std::min(2 * pageIndex(next_), bytes_ / kPageSize));
        return addr;
    }

    /** Return a range to the pool. */
    void
    release(Addr addr, std::size_t bytes)
    {
        addFree(addr, divCeil(bytes, kPageSize));
    }

    /** MMIO register physical address. */
    Addr
    mmio(smartdimm::MmioReg reg) const
    {
        return config_.mmio_base + static_cast<Addr>(reg);
    }

    const smartdimm::SmartDimmConfig &config() const { return config_; }

  private:
    /** The free ranges of one size. */
    struct SizeClass
    {
        std::size_t pages;
        std::vector<Addr> starts; ///< min-heap under std::greater
    };

    std::vector<SizeClass>::iterator
    firstClass(std::size_t pages)
    {
        return std::lower_bound(
            classes_.begin(), classes_.end(), pages,
            [](const SizeClass &c, std::size_t p) { return c.pages < p; });
    }

    std::size_t pageIndex(Addr addr) const
    {
        return (addr - base_) / kPageSize;
    }

    void
    addFree(Addr addr, std::size_t pages)
    {
        SD_ASSERT(addr >= base_ && addr < next_ &&
                      !free_start_[pageIndex(addr)],
                  "driver range 0x%llx released twice or never allocated",
                  static_cast<unsigned long long>(addr));
        free_start_[pageIndex(addr)] = true;
        auto it = firstClass(pages);
        if (it == classes_.end() || it->pages != pages)
            it = classes_.insert(it, SizeClass{pages, {}});
        it->starts.push_back(addr);
        std::push_heap(it->starts.begin(), it->starts.end(),
                       std::greater<>());
    }

    Addr base_;
    std::size_t bytes_;
    smartdimm::SmartDimmConfig config_;
    Addr next_;
    /** Heaps of free starts, ascending by size; none is ever removed. */
    std::vector<SizeClass> classes_;
    /** Per page below next_ (at least): a free range starts there. */
    std::vector<bool> free_start_;
};

} // namespace sd::compcpy

#endif // SD_COMPCPY_DRIVER_H
