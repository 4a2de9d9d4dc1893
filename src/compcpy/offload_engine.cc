#include "compcpy/offload_engine.h"

#include <cstring>

#include "common/log.h"

namespace sd::compcpy {

AdaptiveTlsEngine::AdaptiveTlsEngine(WorkQueue &queue,
                                     const std::uint8_t key[16],
                                     const crypto::GcmIv &static_iv)
    : queue_(queue), probe_(queue.engine().memory().llc()),
      static_iv_(static_iv)
{
    std::memcpy(key_, key, sizeof(key_));
}

EngineRecord
AdaptiveTlsEngine::protectRecord(const std::uint8_t *plain,
                                 std::size_t len,
                                 std::optional<ProcessedOn> force)
{
    auto records = protectRecords({{plain, len}}, force);
    return std::move(records.front());
}

std::vector<EngineRecord>
AdaptiveTlsEngine::protectRecords(
    const std::vector<std::pair<const std::uint8_t *, std::size_t>>
        &plains,
    std::optional<ProcessedOn> force)
{
    SD_ASSERT(!plains.empty(), "empty record batch");

    // One placement decision for the whole batch — the per-queue
    // granularity the work-queue front end buys us.
    const ProcessedOn target =
        force.value_or(probe_.shouldOffload() ? ProcessedOn::kSmartDimm
                                              : ProcessedOn::kCpu);

    std::vector<EngineRecord> records;
    records.reserve(plains.size());

    // Per-record nonces: the same derivation the software record
    // layer uses.
    std::vector<crypto::GcmIv> nonces;
    nonces.reserve(plains.size());
    for (std::size_t i = 0; i < plains.size(); ++i) {
        SD_ASSERT(plains[i].second > 0 &&
                      plains[i].second <= crypto::kTlsMaxFragment,
                  "record size out of range");
        nonces.push_back(crypto::tlsNonce(static_iv_, seq_++));
    }

    if (target == ProcessedOn::kCpu) {
        crypto::GcmContext ctx(key_, crypto::Aes::KeySize::k128);
        for (std::size_t i = 0; i < plains.size(); ++i) {
            const auto [plain, len] = plains[i];
            ++cpu_records_;
            EngineRecord record;
            record.on = ProcessedOn::kCpu;
            record.body.resize(len + crypto::kTlsTagSize);
            const crypto::GcmTag tag =
                ctx.encrypt(nonces[i], plain, len, record.body.data());
            std::memcpy(record.body.data() + len, tag.data(),
                        tag.size());
            records.push_back(std::move(record));
        }
        return records;
    }

    // SmartDIMM path: stage every plaintext in an sbuf, pack the
    // whole batch into one descriptor, submit, and reap the single
    // fanned-in completion record.
    CompCpyEngine &engine = queue_.engine();
    Driver &driver = engine.driver();
    struct Staged
    {
        Addr sbuf = 0;
        Addr dbuf = 0;
        std::size_t src_bytes = 0;
        std::size_t dst_bytes = 0;
    };
    std::vector<Staged> staged;
    staged.reserve(plains.size());
    std::vector<CompCpyParams> ops;
    ops.reserve(plains.size());

    for (std::size_t i = 0; i < plains.size(); ++i) {
        const auto [plain, len] = plains[i];
        ++offloaded_records_;

        Staged s;
        s.src_bytes = divCeil(len, kPageSize) * kPageSize;
        s.dst_bytes =
            divCeil(len + crypto::kTlsTagSize, kPageSize) * kPageSize;
        s.sbuf = driver.alloc(s.src_bytes);
        s.dbuf = driver.alloc(s.dst_bytes);

        // Application writes the plaintext (padding the tail line).
        std::vector<std::uint8_t> page(s.src_bytes, 0);
        std::memcpy(page.data(), plain, len);
        engine.memory().writeSync(s.sbuf, page.data(), page.size());
        staged.push_back(s);

        CompCpyParams params;
        params.dbuf = s.dbuf;
        params.sbuf = s.sbuf;
        params.size = len;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = next_message_id_++;
        std::memcpy(params.key, key_, sizeof(params.key));
        params.iv = nonces[i];
        ops.push_back(params);
    }

    const Descriptor desc = Descriptor::batch(std::move(ops));
    std::optional<std::uint64_t> id = queue_.submit(desc);
    if (!id)
        id = queue_.submitForce(desc);
    const CompletionRecord rec = queue_.wait(*id);

    // Per-queue fallback: one degraded batch flips the probe once, so
    // the *next* reap routes to the CPU while contention re-learns.
    if (rec.status != CompletionStatus::kSuccess)
        probe_.noteDegraded();

    for (std::size_t i = 0; i < plains.size(); ++i) {
        const auto len = plains[i].second;
        const Staged &s = staged[i];
        engine.useSync(s.dbuf, s.dst_bytes);
        EngineRecord record;
        record.on = ProcessedOn::kSmartDimm;
        record.body =
            engine.readResult(s.dbuf, len + crypto::kTlsTagSize);
        records.push_back(std::move(record));
        driver.release(s.sbuf, s.src_bytes);
        driver.release(s.dbuf, s.dst_bytes);
    }
    return records;
}

} // namespace sd::compcpy
