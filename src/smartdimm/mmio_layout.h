/**
 * @file
 * Wire format of SmartDIMM's 64-byte MMIO registers (Sec. IV-C): one
 * write registers a source/destination page pair plus the context the
 * DSA needs. The layouts are packed to fit a single 64-byte MMIO
 * burst, exactly as the paper requires.
 */

#ifndef SD_SMARTDIMM_MMIO_LAYOUT_H
#define SD_SMARTDIMM_MMIO_LAYOUT_H

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/types.h"

namespace sd::smartdimm {

/** Registration opcodes: which ULP's DSA the page pair is for. */
enum class MmioOpcode : std::uint16_t
{
    kRegisterTlsPage = 1,
    kRegisterDeflatePage = 2,
};

/** Page-pair registration, one per destination page: 60 of 64 bytes
 *  used. Deflate reads only the opcode, both pages and message_len. */
struct PageRegistration
{
    MmioOpcode opcode = MmioOpcode::kRegisterTlsPage;
    std::uint16_t page_index = 0;  ///< page position within the record
    /** Total plaintext bytes of the TLS record; a Deflate page's
     *  payload bytes. */
    std::uint32_t message_len = 0;
    /** Physical page number (addr>>12). A TLS tag-only trailer page,
     *  which has no source page, names its destination page here. */
    std::uint64_t sbuf_page = 0;
    std::uint64_t dbuf_page = 0;
    std::uint64_t message_id = 0;  ///< groups pages of one record
    std::uint8_t key[16] = {};
    std::uint8_t iv[12] = {};
};

/**
 * Work-queue doorbell ring: one write to MmioReg::kQueueDoorbell tells
 * the device a descriptor (possibly a batch of ops) entered queue
 * `queue`. The device only counts — dispatch stays host-side — but the
 * count is what poll-timeout recovery diffs against after a dropped
 * completion record.
 */
struct QueueDoorbell
{
    std::uint16_t queue = 0;     ///< work-queue id (< kMaxDeviceQueues)
    std::uint16_t submitter = 0; ///< logical submitter (shared queues)
    std::uint32_t ops = 0;       ///< ops packed in the descriptor
    std::uint64_t seq = 0;       ///< descriptor id within the queue
};

/** Completion acknowledgement written to MmioReg::kQueueComplete when
 *  every op of a descriptor finished; mirrors QueueDoorbell. */
struct QueueCompletion
{
    std::uint16_t queue = 0;
    std::uint16_t status = 0; ///< compcpy::CompletionStatus value
    std::uint32_t ops = 0;
    std::uint64_t seq = 0;
};

/** Serialise @p value into a zero-padded 64-byte MMIO burst. */
template <typename T>
void
packBurst(const T &value, std::uint8_t out[kCacheLineSize])
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      sizeof(T) <= kCacheLineSize,
                  "a register layout must fit one MMIO burst");
    std::memset(out, 0, kCacheLineSize);
    std::memcpy(out, &value, sizeof(value));
}

/** The register layout @p in carries. */
template <typename T>
T
unpackBurst(const std::uint8_t in[kCacheLineSize])
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      sizeof(T) <= kCacheLineSize,
                  "a register layout must fit one MMIO burst");
    T value;
    std::memcpy(&value, in, sizeof(value));
    return value;
}

} // namespace sd::smartdimm

#endif // SD_SMARTDIMM_MMIO_LAYOUT_H
