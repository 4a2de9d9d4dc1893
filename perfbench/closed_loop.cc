/**
 * @file
 * Workload tls_closed_1x1: the single-device hot path. A closed loop
 * on a 1x1 topology keeps a fixed window of TLS-4K encrypt ops in
 * flight on one work queue. Each op has its own random payload, key
 * and IV and runs submit -> completion record -> USE(dbuf) -> read the
 * record back -> release; the freed window slot submits the next op.
 * No dispatcher, CXL link or analytic model is involved.
 *
 * The consumer is modelled on purpose: releasing dbuf without USE
 * (Alg. 2 l. 32) leaves staged lines in the Scratchpad, which shows up
 * as Force-Recycles, rejected registrations, ALERT_N storms and
 * degraded completions. With USE before reuse all of those are 0.
 */

#include <algorithm>
#include <cstring>

#include "bench.h"
#include "common/random.h"
#include "compcpy/queue.h"
#include "crypto/aes_gcm.h"
#include "crypto/tls_record.h"
#include "topo/topology.h"

namespace perfbench {

namespace {

using sd::Addr;
using sd::Tick;
using namespace sd::compcpy;

constexpr std::size_t kOps = 2000;
constexpr std::size_t kRecordBytes = 4096;
constexpr std::size_t kWindow = 4;
constexpr std::size_t kResultBytes = kRecordBytes + sd::crypto::kTlsTagSize;

struct TlsInput
{
    std::vector<std::uint8_t> plain;
    std::uint8_t key[16] = {};
    sd::crypto::GcmIv iv{};
};

/** One op's lifecycle stamps and its read-back record. */
struct OpState
{
    Addr sbuf = 0;
    Addr dbuf = 0;
    unsigned records = 0;
    unsigned uses = 0;
    CompletionStatus status = CompletionStatus::kSuccess;
    Tick submitted = 0;
    Tick dispatched = 0;
    Tick completed = 0;
    Tick use_end = 0;
    std::vector<std::uint8_t> result;
};

/** One pass: a fresh 1x1 system driven through the whole input set. */
class Pass
{
  public:
    Pass(const std::vector<TlsInput> &inputs, HostSpans &spans)
        : inputs_(inputs), spans_(spans), ops_(inputs.size())
    {
    }

    PassResult
    run()
    {
        PassResult res;
        const auto t_setup = Clock::now();
        {
            HostSpans::Scope s(spans_, "topology");
            topo_ = std::make_unique<sd::topo::Topology>();
            queue_ = std::make_unique<WorkQueue>(
                topo_->slot(0u).engine,
                WorkQueueConfig{.id = 1, .mode = QueueMode::kShared});
        }
        {
            // Payloads arrive DMA-resident in DRAM (a NIC staged them);
            // the engine's own sbuf flush orders them.
            HostSpans::Scope s(spans_, "stage_inputs");
            auto &driver = topo_->slot(0u).driver;
            for (std::size_t i = 0; i < ops_.size(); ++i) {
                ops_[i].sbuf = driver.alloc(kRecordBytes);
                topo_->store().write(ops_[i].sbuf, inputs_[i].plain.data(),
                                     kRecordBytes);
            }
        }
        res.setup_s = secondsSince(t_setup);

        sd::EventQueue &events = topo_->events();
        {
            HostSpans::Scope s(spans_, "event_loop");
            for (std::size_t i = 0; i < kWindow; ++i)
                submitNext();
            runSliced(events, res);
        }
        res.events = events.executed();

        {
            HostSpans::Scope s(spans_, "verify");
            verify(res);
        }
        return res;
    }

  private:
    std::size_t
    destBytes() const
    {
        CompCpyParams p;
        p.size = kRecordBytes;
        return CompCpyEngine::destPages(p) * sd::kPageSize;
    }

    void
    submitNext()
    {
        if (next_ >= ops_.size())
            return;
        const std::size_t i = next_++;
        HostSpans::Scope s(spans_, "submit");
        OpState &op = ops_[i];
        const TlsInput &in = inputs_[i];

        CompCpyParams params;
        params.sbuf = op.sbuf;
        params.dbuf = op.dbuf = topo_->slot(0u).driver.alloc(destBytes());
        params.size = kRecordBytes;
        params.ulp = sd::smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = 1 + i;
        std::memcpy(params.key, in.key, sizeof(params.key));
        params.iv = in.iv;
        op.submitted = topo_->events().now();
        const auto id = queue_->submit(
            Descriptor::single(params), 0,
            [this, i](const CompletionRecord &rec) { onComplete(i, rec); });
        if (!id) // the window is far below the queue depth
            ++rejected_;
    }

    void
    onComplete(std::size_t i, const CompletionRecord &rec)
    {
        OpState &op = ops_[i];
        ++op.records;
        op.status = rec.status;
        op.dispatched = rec.dispatched;
        op.completed = rec.completed;
        topo_->slot(0u).engine.use(op.dbuf, destBytes(),
                                   [this, i] { onUse(i); });
    }

    void
    onUse(std::size_t i)
    {
        OpState &op = ops_[i];
        ++op.uses;
        op.use_end = topo_->events().now();
        readBack(topo_->memory(), op.dbuf, kResultBytes, op.result,
                 [this, i] { onRead(i); });
    }

    void
    onRead(std::size_t i)
    {
        OpState &op = ops_[i];
        auto &driver = topo_->slot(0u).driver;
        driver.release(op.sbuf, kRecordBytes);
        driver.release(op.dbuf, destBytes());
        submitNext();
    }

    void
    verify(PassResult &res)
    {
        sd::trace::StatsRegistry registry;
        topo_->registerStats(registry);
        registry.add("queue", [this](sd::trace::StatsBlock &b) {
            queue_->reportStats(b);
        });
        Digest digest;
        digestRegistry(registry, digest);

        CompCpyTimes times;
        Tick end = 0;
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            OpState &op = ops_[i];
            const TlsInput &in = inputs_[i];
            ++res.attempted;
            digest.u64(op.use_end - op.submitted);
            digest.u64(static_cast<std::uint64_t>(op.status));
            digest.bytes(op.result.data(), op.result.size());
            if (op.records != 1 || op.uses != 1) {
                res.fail("op " + std::to_string(i) + ": " +
                         std::to_string(op.records) + " records, " +
                         std::to_string(op.uses) + " USEs");
                continue;
            }
            if (op.status != CompletionStatus::kSuccess) {
                res.fail("op " + std::to_string(i) + ": status " +
                         completionStatusName(op.status));
                continue;
            }
            if (!gcmRecordMatches(in.key, in.iv, op.result.data(),
                                  kRecordBytes, in.plain.data())) {
                res.fail("op " + std::to_string(i) +
                         ": AES-GCM record does not decrypt to its input");
                continue;
            }
            res.latency.push_back(op.use_end - op.submitted);
            times.wait.push_back(
                static_cast<double>(op.dispatched - op.submitted) /
                kTicksPerUs);
            times.service.push_back(
                static_cast<double>(op.completed - op.dispatched) /
                kTicksPerUs);
            times.use.push_back(
                static_cast<double>(op.use_end - op.completed) / kTicksPerUs);
            end = std::max(end, op.use_end);
        }
        if (rejected_ > 0)
            res.fail(std::to_string(rejected_) + " submits rejected");
        res.sim_ticks = end;
        res.digest = digest.value();

        memoryLayerMetrics(registry, res.attempted, end, res.layer);
        times.report(res.layer);
    }

    const std::vector<TlsInput> &inputs_;
    HostSpans &spans_;
    std::vector<OpState> ops_;
    std::unique_ptr<sd::topo::Topology> topo_;
    std::unique_ptr<WorkQueue> queue_;
    std::size_t next_ = 0;
    std::uint64_t rejected_ = 0;
};

class ClosedLoop : public Workload
{
  public:
    explicit ClosedLoop(std::uint64_t seed) : inputs_(kOps)
    {
        sd::Rng rng(seed);
        for (TlsInput &in : inputs_) {
            in.plain.resize(kRecordBytes);
            rng.fill(in.plain.data(), in.plain.size());
            rng.fill(in.key, sizeof(in.key));
            rng.fill(in.iv.data(), in.iv.size());
        }
    }

    PassResult
    run(HostSpans &spans) override
    {
        return Pass(inputs_, spans).run();
    }

    void
    replayKernels(std::map<std::string, double> &layer,
                  HostSpans &spans) override
    {
        HostSpans::Scope s(spans, "replay_gcm");
        const auto t0 = Clock::now();
        std::vector<std::uint8_t> out(kRecordBytes);
        for (const TlsInput &in : inputs_) {
            // The TLS DSA's per-message state: one key context and an
            // out-of-order incremental GCM fed line by line.
            sd::crypto::GcmContext ctx(in.key, sd::crypto::Aes::KeySize::k128);
            sd::crypto::IncrementalGcm gcm(ctx, in.iv, kRecordBytes);
            for (std::size_t l = 0; l < gcm.lineCount(); ++l)
                gcm.processLine(l, in.plain.data() + l * sd::kCacheLineSize,
                                out.data() + l * sd::kCacheLineSize);
            gcm.finalTag();
        }
        layer["kernels.gcm_host_s"] = secondsSince(t0);
        layer["kernels.gcm_bytes"] =
            static_cast<double>(inputs_.size() * kRecordBytes);
    }

    std::string
    describe() const override
    {
        return "closed loop, 1x1, window " + std::to_string(kWindow) +
               ", " + std::to_string(kOps) +
               " TLS-4K encrypt ops per pass (own payload/key/IV each)";
    }

  private:
    std::vector<TlsInput> inputs_;
};

} // namespace

std::unique_ptr<Workload>
makeClosedLoop(std::uint64_t seed)
{
    return std::make_unique<ClosedLoop>(seed);
}

} // namespace perfbench
