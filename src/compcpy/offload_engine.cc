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
    SD_ASSERT(len > 0 && len <= crypto::kTlsMaxFragment,
              "record size out of range");
    const ProcessedOn target =
        force.value_or(probe_.shouldOffload() ? ProcessedOn::kSmartDimm
                                              : ProcessedOn::kCpu);
    // The record nonce: the same derivation the software record layer
    // uses.
    const crypto::GcmIv nonce = crypto::tlsNonce(static_iv_, seq_++);

    EngineRecord record;
    record.on = target;
    if (target == ProcessedOn::kCpu) {
        ++cpu_records_;
        crypto::GcmContext ctx(key_, crypto::Aes::KeySize::k128);
        record.body.resize(len + crypto::kTlsTagSize);
        const crypto::GcmTag tag =
            ctx.encrypt(nonce, plain, len, record.body.data());
        std::memcpy(record.body.data() + len, tag.data(), tag.size());
        return record;
    }

    // SmartDIMM path: stage the plaintext in an sbuf, submit one
    // descriptor and reap its completion record.
    ++offloaded_records_;
    CompCpyEngine &engine = queue_.engine();
    Driver &driver = engine.driver();
    const std::size_t src_bytes = divCeil(len, kPageSize) * kPageSize;
    const std::size_t dst_bytes =
        divCeil(len + crypto::kTlsTagSize, kPageSize) * kPageSize;
    const Addr sbuf = driver.alloc(src_bytes);
    const Addr dbuf = driver.alloc(dst_bytes);

    // Application writes the plaintext (padding the tail line).
    std::vector<std::uint8_t> page(src_bytes, 0);
    std::memcpy(page.data(), plain, len);
    engine.memory().writeSync(sbuf, page.data(), page.size());

    CompCpyParams params;
    params.dbuf = dbuf;
    params.sbuf = sbuf;
    params.size = len;
    params.ulp = smartdimm::UlpKind::kTlsEncrypt;
    params.message_id = next_message_id_++;
    std::memcpy(params.key, key_, sizeof(params.key));
    params.iv = nonce;

    const Descriptor desc = Descriptor::single(params);
    std::optional<std::uint64_t> id = queue_.submit(desc);
    if (!id)
        id = queue_.submitForce(desc);
    if (queue_.wait(*id).status != CompletionStatus::kSuccess)
        probe_.noteDegraded();

    engine.useSync(dbuf, dst_bytes);
    record.body = engine.readResult(dbuf, len + crypto::kTlsTagSize);
    driver.release(sbuf, src_bytes);
    driver.release(dbuf, dst_bytes);
    return record;
}

} // namespace sd::compcpy
