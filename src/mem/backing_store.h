/**
 * @file
 * Sparse byte-addressable backing store so the simulated memory holds
 * real data (ciphertexts and compressed streams are verified against
 * the software implementations).
 */

#ifndef SD_MEM_BACKING_STORE_H
#define SD_MEM_BACKING_STORE_H

#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/types.h"

namespace sd::mem {

/** Sparse page-granular memory image. Untouched bytes read as zero. */
class BackingStore
{
  public:
    /** Read @p len bytes at @p addr into @p dst. */
    void
    read(Addr addr, std::uint8_t *dst, std::size_t len) const
    {
        while (len > 0) {
            const Addr page = pageAlign(addr);
            const std::size_t off = addr - page;
            const std::size_t take = std::min(len, kPageSize - off);
            auto it = pages_.find(page);
            if (it == pages_.end())
                std::memset(dst, 0, take);
            else
                std::memcpy(dst, it->second->data() + off, take);
            addr += take;
            dst += take;
            len -= take;
        }
    }

    /** Write @p len bytes from @p src at @p addr. */
    void
    write(Addr addr, const std::uint8_t *src, std::size_t len)
    {
        while (len > 0) {
            const Addr page = pageAlign(addr);
            const std::size_t off = addr - page;
            const std::size_t take = std::min(len, kPageSize - off);
            auto &slot = pages_[page];
            if (!slot)
                slot = std::make_unique<Page>();
            std::memcpy(slot->data() + off, src, take);
            addr += take;
            src += take;
            len -= take;
        }
    }

  private:
    using Page = std::array<std::uint8_t, kPageSize>;
    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

} // namespace sd::mem

#endif // SD_MEM_BACKING_STORE_H
