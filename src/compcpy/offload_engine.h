/**
 * @file
 * OpenSSL-engine analogue (Fig. 8): protects TLS records either on
 * the CPU (software AES-GCM) or through SmartDIMM via CompCpy,
 * steered by the LLC contention probe.
 */

#ifndef SD_COMPCPY_OFFLOAD_ENGINE_H
#define SD_COMPCPY_OFFLOAD_ENGINE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "compcpy/adaptive.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/queue.h"
#include "crypto/tls_record.h"

namespace sd::compcpy {

/** Where a record actually got processed. */
enum class ProcessedOn : std::uint8_t
{
    kCpu,
    kSmartDimm,
};

/** One protected record plus provenance. */
struct EngineRecord
{
    std::vector<std::uint8_t> body; ///< ciphertext || tag
    ProcessedOn on = ProcessedOn::kCpu;
};

/**
 * The adaptive TLS engine. Offloads through one device's work queue
 * (a topo::Topology slot's), stages buffers through that engine's
 * driver, and keeps per-connection key material like the OpenSSL
 * cipher context would.
 */
class AdaptiveTlsEngine
{
  public:
    AdaptiveTlsEngine(WorkQueue &queue, const std::uint8_t key[16],
                      const crypto::GcmIv &static_iv);

    /**
     * Protect @p len plaintext bytes as one record body
     * (ciphertext || tag), on CPU or SmartDIMM per the probe. An
     * offloaded record is one descriptor on the device's work queue;
     * a non-success completion record notes degradation on the probe,
     * so the next record routes to the CPU while the probe re-learns.
     * @param force optional override of the adaptive decision
     */
    EngineRecord protectRecord(const std::uint8_t *plain, std::size_t len,
                               std::optional<ProcessedOn> force = {});

    /** Probe access (callers sample it at their request cadence). */
    LlcContentionProbe &probe() { return probe_; }

    std::uint64_t cpuRecords() const { return cpu_records_; }
    std::uint64_t offloadedRecords() const { return offloaded_records_; }

  private:
    WorkQueue &queue_;
    LlcContentionProbe probe_;
    std::uint8_t key_[16];
    crypto::GcmIv static_iv_;
    std::uint64_t seq_ = 0;
    std::uint64_t next_message_id_ = 1;
    std::uint64_t cpu_records_ = 0;
    std::uint64_t offloaded_records_ = 0;
};

} // namespace sd::compcpy

#endif // SD_COMPCPY_OFFLOAD_ENGINE_H
