#include "smartdimm/scratchpad.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"

namespace sd::smartdimm {

Scratchpad::Scratchpad(std::size_t pages) : pages_(pages)
{
    SD_ASSERT(pages > 0, "empty scratchpad");
    free_.reserve(pages);
    for (std::size_t i = pages; i > 0; --i)
        free_.push_back(static_cast<std::uint32_t>(i - 1));
}

std::optional<std::uint32_t>
Scratchpad::allocate()
{
    owner_.check();
    if (free_.empty())
        return std::nullopt;
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    Page &page = pages_[slot];
    page.allocated = true;
    page.pending.set(); // every line awaits drain
    page.computed.reset();
    page.data.assign(kPageSize, 0);
    ++stats_.allocs;
    stats_.peak_pages = std::max<std::uint64_t>(stats_.peak_pages,
                                                livePages());
    return slot;
}

std::size_t
Scratchpad::livePages() const
{
    return pages_.size() - free_.size();
}

void
Scratchpad::writeLine(std::uint32_t page, unsigned line,
                      const std::uint8_t *data)
{
    owner_.check();
    SD_ASSERT(page < pages_.size() && line < kLinesPerPage,
              "scratchpad write out of range");
    Page &p = pages_[page];
    SD_ASSERT(p.allocated, "write to unallocated scratchpad page");
    std::memcpy(p.data.data() + line * kCacheLineSize, data,
                kCacheLineSize);
    p.computed.set(line);
    ++stats_.writes;
}

void
Scratchpad::readLine(std::uint32_t page, unsigned line, std::uint8_t *dst)
{
    SD_ASSERT(page < pages_.size() && line < kLinesPerPage,
              "scratchpad read out of range");
    const Page &p = pages_[page];
    SD_ASSERT(p.allocated, "read from unallocated scratchpad page");
    std::memcpy(dst, p.data.data() + line * kCacheLineSize,
                kCacheLineSize);
    ++stats_.reads;
}

bool
Scratchpad::lineComputed(std::uint32_t page, unsigned line) const
{
    const Page &p = pages_[page];
    return p.allocated && p.computed.test(line);
}

bool
Scratchpad::linePending(std::uint32_t page, unsigned line) const
{
    const Page &p = pages_[page];
    return p.allocated && p.pending.test(line);
}

bool
Scratchpad::drainLine(std::uint32_t page, unsigned line,
                      std::uint8_t *drained)
{
    owner_.check();
    Page &p = pages_[page];
    SD_ASSERT(p.allocated && p.pending.test(line),
              "drain of a non-pending scratchpad line");
    std::memcpy(drained, p.data.data() + line * kCacheLineSize,
                kCacheLineSize);
    p.pending.reset(line);
    ++stats_.self_recycles;
    if (p.pending.none()) {
        freePage(page);
        return true;
    }
    return false;
}

void
Scratchpad::forceDrainPage(std::uint32_t page, std::uint8_t *page_data)
{
    owner_.check();
    Page &p = pages_[page];
    SD_ASSERT(p.allocated, "force-drain of unallocated page");
    std::memcpy(page_data, p.data.data(), kPageSize);
    p.pending.reset();
    ++stats_.force_recycles;
    freePage(page);
}

void
Scratchpad::release(std::uint32_t page)
{
    owner_.check();
    Page &p = pages_[page];
    SD_ASSERT(p.allocated, "release of unallocated scratchpad page");
    p.pending.reset();
    freePage(page);
}

void
Scratchpad::freePage(std::uint32_t page)
{
    Page &p = pages_[page];
    p.allocated = false;
    p.computed.reset();
    free_.push_back(page);
}

} // namespace sd::smartdimm
