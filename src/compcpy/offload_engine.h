/**
 * @file
 * OpenSSL-engine analogue (Fig. 8): protects TLS records either on
 * the CPU (software AES-GCM) or through SmartDIMM via CompCpy,
 * steered by the LLC contention probe. Also hosts the equivalent
 * Deflate entry point used by the compression module.
 */

#ifndef SD_COMPCPY_OFFLOAD_ENGINE_H
#define SD_COMPCPY_OFFLOAD_ENGINE_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "compcpy/adaptive.h"
#include "compcpy/compcpy.h"
#include "compcpy/driver.h"
#include "compcpy/queue.h"
#include "compress/deflate.h"
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
 * The adaptive TLS engine. Owns SmartDIMM-side staging buffers via
 * the driver and keeps per-connection key material like the OpenSSL
 * cipher context would.
 */
class AdaptiveTlsEngine
{
  public:
    AdaptiveTlsEngine(cache::MemorySystem &memory, Driver &driver,
                      CompCpyEngine::SharedState &shared,
                      const std::uint8_t key[16],
                      const crypto::GcmIv &static_iv,
                      const AdaptiveConfig &adaptive = {});

    /**
     * Protect @p len plaintext bytes as one record body
     * (ciphertext || tag), on CPU or SmartDIMM per the probe.
     * Equivalent to a one-record protectRecords() batch.
     * @param force optional override of the adaptive decision
     */
    EngineRecord protectRecord(const std::uint8_t *plain, std::size_t len,
                               std::optional<ProcessedOn> force = {});

    /**
     * Protect a batch of records through the engine's dedicated work
     * queue: one placement decision for the whole batch, one batch
     * descriptor fanned out to per-record ops, one completion record
     * fanned back in. CPU fallback is *per queue*, not per call — a
     * non-success completion record notes degradation on the probe
     * once per reaped batch, so the next batch routes to the CPU
     * while the probe re-learns.
     * @param force optional override of the adaptive decision
     */
    std::vector<EngineRecord> protectRecords(
        const std::vector<std::pair<const std::uint8_t *, std::size_t>>
            &plains,
        std::optional<ProcessedOn> force = {});

    /** Probe access (callers sample it at their request cadence). */
    LlcContentionProbe &probe() { return probe_; }

    /** The dedicated work queue batches offload through. */
    WorkQueue &queue() { return queue_; }

    std::uint64_t cpuRecords() const { return cpu_records_; }
    std::uint64_t offloadedRecords() const { return offloaded_records_; }

    /**
     * Register "<prefix>engine", "<prefix>probe" and
     * "<prefix>compcpy" providers into @p registry. Providers
     * reference this object — remove them (or drop the registry)
     * before destroying it.
     */
    void registerStats(trace::StatsRegistry &registry,
                       const std::string &prefix = "") const;

  private:
    /** Work-queue geometry of the engine's dedicated queue. */
    static WorkQueueConfig queueConfig();

    cache::MemorySystem &memory_;
    Driver &driver_;
    CompCpyEngine compcpy_;
    WorkQueue queue_;
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
