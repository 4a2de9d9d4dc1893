/**
 * @file
 * Workload mixed_open_4x2_cxl: an open loop on a 4x2 local topology
 * plus one CXL.mem channel (600 ns link), driven through the
 * ShardDispatcher. Poisson arrivals over a pool of flows with
 * Zipf-like popularity carry a mix of TLS-4K and TLS-16K records,
 * 64 KB TLS messages striped across DIMMs, and single-page ordered
 * Deflate of compressible (HTML-like) and incompressible payloads.
 *
 * Every arrival is drawn from the seed before the run and scheduled at
 * its exact due tick, so in simulated time the generator is never
 * late; latency runs from the due tick to the end of the op's USE.
 * Ops the dispatcher sends to the CPU path are served by a modelled
 * CPU worker pool and counted under topo, not as failures. A pass in
 * which sibling shedding, tier migration, the CXL link or striping did
 * no work fails: the workload would no longer cover those layers.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "common/random.h"
#include "compress/deflate.h"
#include "compress/hw_deflate.h"
#include "crypto/aes_gcm.h"
#include "crypto/tls_record.h"
#include "offload/cost_model.h"
#include "smartdimm/deflate_dsa.h"
#include "topo/dispatcher.h"

namespace perfbench {

namespace {

using sd::Addr;
using sd::Tick;
using namespace sd::compcpy;
using sd::topo::ShardDispatcher;

constexpr std::size_t kFlows = 256;
constexpr double kZipfSkew = 1.0;
/** Offered load, ops per simulated second, just past the knee: CPU
 *  fallback starts near 300k and grows quickly beyond 400k (see
 *  README.md for the measured sweep). */
constexpr double kArrivalRate = 400e3;
constexpr unsigned kCpuWorkers = 4;
constexpr std::size_t kStripeBytes = 64 * 1024;
constexpr std::size_t kDeflateBytes = sd::smartdimm::kDeflateMaxPayload;

enum class Kind : std::uint8_t
{
    kTls4k,
    kTls16k,
    kStripe64k,
    kDeflateHtml,
    kDeflateRandom,
};

constexpr const char *kKindNames[] = {"tls_4k", "tls_16k", "tls_64k_striped",
                                      "deflate_html", "deflate_random"};
/** Ops of each kind per pass (1500 in all). The counts are exact and
 *  only their order is drawn from the seed, so every seed does the same
 *  amount of work. */
constexpr std::size_t kMix[] = {600, 300, 150, 225, 225};

bool
isTls(Kind k)
{
    return k == Kind::kTls4k || k == Kind::kTls16k || k == Kind::kStripe64k;
}

struct Request
{
    Tick due = 0;
    std::uint64_t flow = 0;
    Kind kind = Kind::kTls4k;
    std::uint64_t message_id = 0;
    std::vector<std::uint8_t> payload;
    std::uint8_t key[16] = {};
    sd::crypto::GcmIv iv{};
};

/** A web-response-like page: markup rows with seeded fields. */
std::vector<std::uint8_t>
htmlPayload(sd::Rng &rng, std::size_t len)
{
    static const char *kWords[] = {"SmartDIMM", "buffer", "device",
                                   "offload",   "record", "channel",
                                   "scratchpad", "recycle"};
    std::vector<std::uint8_t> out;
    char row[160];
    while (out.size() < len) {
        const int n = std::snprintf(
            row, sizeof(row),
            "<tr><td class=\"sku\">SD-%04u</td><td>%s %s</td>"
            "<td>%u.%02u</td></tr>\n",
            static_cast<unsigned>(rng.below(10000)),
            kWords[rng.below(std::size(kWords))],
            kWords[rng.below(std::size(kWords))],
            static_cast<unsigned>(rng.below(500)),
            static_cast<unsigned>(rng.below(100)));
        out.insert(out.end(), row, row + n);
    }
    out.resize(len);
    return out;
}

/** Lifecycle of one request (a single op or one striped message). */
struct OpState
{
    unsigned slot = 0;
    bool cpu = false;
    CompCpyParams params; ///< single ops
    std::optional<ShardDispatcher::StripePlan> stripe;
    unsigned records = 0;
    unsigned uses = 0;
    unsigned uses_pending = 0;
    std::size_t reads_pending = 0; ///< records still being read back
    CompletionStatus status = CompletionStatus::kSuccess;
    Tick dispatched = 0;
    Tick completed = 0;
    Tick use_end = 0;
    std::vector<std::vector<std::uint8_t>> results; ///< one per chunk
};

/** Bytes of the transformed record the consumer reads back. */
std::size_t
resultBytes(const CompCpyParams &p)
{
    return p.ulp == sd::smartdimm::UlpKind::kTlsEncrypt
               ? p.size + sd::crypto::kTlsTagSize
               : sd::kPageSize; // framed Deflate page
}

std::size_t
destBytes(const CompCpyParams &p)
{
    return CompCpyEngine::destPages(p) * sd::kPageSize;
}

class Pass
{
  public:
    Pass(const std::vector<Request> &requests, HostSpans &spans)
        : requests_(requests), spans_(spans), ops_(requests.size()),
          worker_free_(kCpuWorkers, 0)
    {
    }

    PassResult
    run()
    {
        PassResult res;
        const auto t_setup = Clock::now();
        {
            HostSpans::Scope s(spans_, "topology");
            sd::topo::TopologySpec spec;
            spec.channels = 4;
            spec.dimms_per_channel = 2;
            spec.cxl_channels = 1;
            spec.cxl_link.round_trip_ns = 600.0;
            topo_ = std::make_unique<sd::topo::Topology>(spec);
            dispatcher_ = std::make_unique<ShardDispatcher>(*topo_);
        }
        {
            HostSpans::Scope s(spans_, "stage_inputs");
            for (std::size_t i = 0; i < requests_.size(); ++i)
                topo_->events().schedule(requests_[i].due,
                                         [this, i] { arrive(i); });
        }
        res.setup_s = secondsSince(t_setup);

        sd::EventQueue &events = topo_->events();
        {
            HostSpans::Scope s(spans_, "event_loop");
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
    CompCpyParams
    baseParams(const Request &r) const
    {
        CompCpyParams p;
        p.size = r.payload.size();
        p.message_id = r.message_id;
        if (isTls(r.kind)) {
            p.ulp = sd::smartdimm::UlpKind::kTlsEncrypt;
            std::memcpy(p.key, r.key, sizeof(p.key));
            p.iv = r.iv;
        } else {
            p.ulp = sd::smartdimm::UlpKind::kDeflate;
            p.ordered = true; // the streaming DSA needs in-order lines
        }
        return p;
    }

    void
    arrive(std::size_t i)
    {
        HostSpans::Scope s(spans_, "place_submit");
        const Request &r = requests_[i];
        OpState &op = ops_[i];
        if (r.kind == Kind::kStripe64k) {
            op.stripe = dispatcher_->planStripe(baseParams(r), r.flow);
            std::size_t off = 0;
            for (const auto &chunk : op.stripe->chunks) {
                topo_->store().write(chunk.params.sbuf,
                                     r.payload.data() + off,
                                     chunk.params.size);
                off += chunk.params.size;
            }
            dispatcher_->submitStripe(
                *op.stripe,
                [this, i](CompletionStatus st) { onStripeDone(i, st); });
            return;
        }

        const unsigned slot = dispatcher_->place(r.flow);
        if (slot == ShardDispatcher::kCpuPath) {
            runOnCpu(i);
            return;
        }
        auto &driver = topo_->slot(slot).driver;
        op.slot = slot;
        op.params = baseParams(r);
        op.params.sbuf = driver.alloc(op.params.size);
        op.params.dbuf = driver.alloc(destBytes(op.params));
        topo_->store().write(op.params.sbuf, r.payload.data(),
                             r.payload.size());
        ++outstanding_[r.flow];
        const auto id = dispatcher_->submit(
            slot, Descriptor::single(op.params), 0,
            [this, i](const CompletionRecord &rec) { onComplete(i, rec); });
        if (!id) {
            // The queue filled between placement and submit.
            driver.release(op.params.sbuf, op.params.size);
            driver.release(op.params.dbuf, destBytes(op.params));
            releaseFlow(r.flow);
            runOnCpu(i);
        }
    }

    void
    releaseFlow(std::uint64_t flow)
    {
        if (--outstanding_[flow] == 0)
            dispatcher_->releaseFlow(flow);
    }

    /** Serve @p i on the least-busy modelled CPU worker. */
    void
    runOnCpu(std::size_t i)
    {
        const Request &r = requests_[i];
        const sd::offload::CpuParams &cpu = cost_.cpu;
        const double bytes = static_cast<double>(r.payload.size());
        const double cycles =
            isTls(r.kind)
                ? cpu.aesni_cycles_per_byte * bytes + cpu.tls_record_cycles
                : cpu.deflate_cycles_per_byte * bytes +
                      cpu.deflate_setup_cycles;
        const auto service = static_cast<Tick>(cycles / cpu.freq_ghz * 1e3);
        auto worker = std::min_element(worker_free_.begin(),
                                       worker_free_.end());
        *worker = std::max(topo_->events().now(), *worker) + service;
        ops_[i].cpu = true;
        topo_->events().schedule(*worker, [this, i] {
            ops_[i].use_end = topo_->events().now();
        });
    }

    void
    onComplete(std::size_t i, const CompletionRecord &rec)
    {
        OpState &op = ops_[i];
        ++op.records;
        op.status = rec.status;
        op.dispatched = rec.dispatched;
        op.completed = rec.completed;
        op.uses_pending = 1;
        topo_->slot(op.slot).engine.use(op.params.dbuf,
                                        destBytes(op.params),
                                        [this, i] { onUse(i); });
    }

    void
    onStripeDone(std::size_t i, CompletionStatus status)
    {
        OpState &op = ops_[i];
        ++op.records;
        op.status = status;
        op.completed = topo_->events().now();
        op.uses_pending =
            static_cast<unsigned>(op.stripe->chunks.size());
        for (const auto &chunk : op.stripe->chunks)
            topo_->slot(chunk.slot).engine.use(chunk.params.dbuf,
                                               destBytes(chunk.params),
                                               [this, i] { onUse(i); });
    }

    void
    onUse(std::size_t i)
    {
        OpState &op = ops_[i];
        ++op.uses;
        if (--op.uses_pending > 0)
            return;
        op.use_end = topo_->events().now();

        // Read every record back (one per stripe chunk).
        std::vector<const CompCpyParams *> parts;
        if (op.stripe)
            for (const auto &chunk : op.stripe->chunks)
                parts.push_back(&chunk.params);
        else
            parts.push_back(&op.params);
        op.results.resize(parts.size());
        op.reads_pending = parts.size();
        for (std::size_t c = 0; c < parts.size(); ++c)
            readBack(topo_->memory(), parts[c]->dbuf, resultBytes(*parts[c]),
                     op.results[c], [this, i] {
                         if (--ops_[i].reads_pending == 0)
                             onRead(i);
                     });
    }

    void
    onRead(std::size_t i)
    {
        OpState &op = ops_[i];
        if (op.stripe) {
            dispatcher_->releaseStripe(*op.stripe);
            return;
        }
        auto &driver = topo_->slot(op.slot).driver;
        driver.release(op.params.sbuf, op.params.size);
        driver.release(op.params.dbuf, destBytes(op.params));
        releaseFlow(requests_[i].flow);
    }

    /** @return an error message, or empty when @p i's output is right. */
    std::string
    checkOutput(std::size_t i) const
    {
        const Request &r = requests_[i];
        const OpState &op = ops_[i];
        if (!isTls(r.kind)) {
            const std::vector<std::uint8_t> &framed = op.results[0];
            const std::size_t len = framed[0] | (framed[1] << 8);
            if (len + 2 > framed.size())
                return "deflate frame length out of range";
            const auto plain = sd::compress::deflateTryDecompress(
                framed.data() + 2, len, kDeflateBytes);
            return plain && *plain == r.payload
                       ? ""
                       : "deflate page does not inflate to its input";
        }
        std::size_t off = 0;
        for (std::size_t c = 0; c < op.results.size(); ++c) {
            const CompCpyParams &p =
                op.stripe ? op.stripe->chunks[c].params : op.params;
            if (!gcmRecordMatches(r.key, p.iv, op.results[c].data(), p.size,
                                  r.payload.data() + off))
                return "AES-GCM record does not decrypt to its input";
            off += p.size;
        }
        return "";
    }

    void
    verify(PassResult &res)
    {
        sd::trace::StatsRegistry registry;
        topo_->registerStats(registry);
        dispatcher_->registerStats(registry);
        Digest digest;
        digestRegistry(registry, digest);

        CompCpyTimes times;
        Tick end = 0;
        std::uint64_t cpu_path = 0;
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            const Request &r = requests_[i];
            const OpState &op = ops_[i];
            ++res.attempted;
            digest.u64(op.use_end);
            digest.u64(static_cast<std::uint64_t>(op.status));
            for (const auto &bytes : op.results)
                digest.bytes(bytes.data(), bytes.size());
            const std::string id = "op " + std::to_string(i) + " (" +
                                   kKindNames[static_cast<int>(r.kind)] +
                                   "): ";
            if (op.cpu) {
                ++cpu_path;
                res.latency.push_back(op.use_end - r.due);
                end = std::max(end, op.use_end);
                continue;
            }
            const unsigned parts =
                op.stripe ? static_cast<unsigned>(op.stripe->chunks.size())
                          : 1;
            if (op.records != 1 || op.uses != parts) {
                res.fail(id + std::to_string(op.records) + " records, " +
                         std::to_string(op.uses) + " USEs for " +
                         std::to_string(parts) + " parts");
                continue;
            }
            if (op.status != CompletionStatus::kSuccess) {
                res.fail(id + "status " + completionStatusName(op.status));
                continue;
            }
            if (const std::string err = checkOutput(i); !err.empty()) {
                res.fail(id + err);
                continue;
            }
            res.latency.push_back(op.use_end - r.due);
            end = std::max(end, op.use_end);
            times.use.push_back(
                static_cast<double>(op.use_end - op.completed) / kTicksPerUs);
            if (!op.stripe) {
                times.wait.push_back(
                    static_cast<double>(op.dispatched - r.due) / kTicksPerUs);
                times.service.push_back(
                    static_cast<double>(op.completed - op.dispatched) /
                    kTicksPerUs);
            }
        }
        res.sim_ticks = end - requests_.front().due;
        res.digest = digest.value();

        auto &layer = res.layer;
        memoryLayerMetrics(registry, res.attempted, end, layer);
        times.report(layer);

        const sd::topo::DispatchStats &ds = dispatcher_->stats();
        layer["topo.home_hit_ratio"] =
            ds.placements ? static_cast<double>(ds.home_hits) /
                                static_cast<double>(ds.placements)
                          : 0;
        layer["topo.shed_to_sibling"] =
            static_cast<double>(ds.shed_to_sibling);
        layer["topo.cpu_fallback_ratio"] =
            static_cast<double>(cpu_path) /
            static_cast<double>(res.attempted);
        layer["topo.migrations"] = static_cast<double>(
            ds.migrations_to_local + ds.migrations_to_cxl);
        layer["topo.stripe_chunks"] = static_cast<double>(ds.stripe_chunks);
        layer["topo.peak_backlog"] = static_cast<double>(peakBacklog());

        // The workload exists to keep these layers busy; a run in which
        // one of them idles no longer measures what it claims to.
        for (const char *name :
             {"topo.shed_to_sibling", "topo.migrations",
              "mem.cxl.transfers_per_op", "topo.stripe_chunks"})
            if (layer[name] == 0)
                res.errors.push_back(std::string(name) +
                                     " is 0: the layer did no work");
    }

    /** Most requests due but not yet done at any arrival instant. */
    std::size_t
    peakBacklog() const
    {
        std::vector<std::pair<Tick, int>> marks;
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            marks.emplace_back(requests_[i].due, +1);
            marks.emplace_back(ops_[i].use_end, -1);
        }
        std::sort(marks.begin(), marks.end());
        long depth = 0, peak = 0;
        for (const auto &[tick, delta] : marks)
            peak = std::max(peak, depth += delta);
        return static_cast<std::size_t>(peak);
    }

    const std::vector<Request> &requests_;
    HostSpans &spans_;
    std::vector<OpState> ops_;
    std::vector<Tick> worker_free_;
    std::unordered_map<std::uint64_t, unsigned> outstanding_;
    sd::offload::CostModel cost_;
    std::unique_ptr<sd::topo::Topology> topo_;
    std::unique_ptr<ShardDispatcher> dispatcher_;
};

class OpenLoop : public Workload
{
  public:
    explicit OpenLoop(std::uint64_t seed)
    {
        sd::Rng rng(seed);
        std::vector<Kind> kinds;
        for (std::size_t k = 0; k < std::size(kMix); ++k)
            kinds.insert(kinds.end(), kMix[k], static_cast<Kind>(k));
        for (std::size_t i = kinds.size(); i > 1; --i)
            std::swap(kinds[i - 1], kinds[rng.below(i)]);

        // Poisson arrivals conditioned on the pass's op count: the
        // exponential gaps are rescaled so the last op is due at exactly
        // ops / rate, and every seed offers precisely the nominal rate.
        std::vector<double> gaps(kinds.size());
        double gap_sum = 0;
        for (double &g : gaps)
            gap_sum += g = rng.exponential(1.0);
        const double ticks_per_gap =
            static_cast<double>(kinds.size()) * 1e12 / kArrivalRate / gap_sum;
        double t = 0;
        Tick prev_due = 0;
        std::uint64_t next_id = 1;
        requests_.resize(kinds.size());
        for (std::size_t i = 0; i < kinds.size(); ++i) {
            Request &r = requests_[i];
            t += gaps[i] * ticks_per_gap;
            r.due = prev_due = std::max(prev_due + 1, static_cast<Tick>(t));
            r.flow = rng.zipf(kFlows, kZipfSkew);
            r.kind = kinds[i];
            r.message_id = next_id;
            next_id += r.kind == Kind::kStripe64k ? 64 : 1;
            switch (r.kind) {
              case Kind::kTls4k:
                r.payload.resize(4096);
                break;
              case Kind::kTls16k:
                r.payload.resize(16384);
                break;
              case Kind::kStripe64k:
                r.payload.resize(kStripeBytes);
                break;
              case Kind::kDeflateHtml:
                r.payload = htmlPayload(rng, kDeflateBytes);
                break;
              case Kind::kDeflateRandom:
                r.payload.resize(kDeflateBytes);
                break;
            }
            if (r.kind != Kind::kDeflateHtml)
                rng.fill(r.payload.data(), r.payload.size());
            if (isTls(r.kind)) {
                rng.fill(r.key, sizeof(r.key));
                rng.fill(r.iv.data(), r.iv.size());
            }
        }
    }

    PassResult
    run(HostSpans &spans) override
    {
        return Pass(requests_, spans).run();
    }

    void
    replayKernels(std::map<std::string, double> &layer,
                  HostSpans &spans) override
    {
        double gcm_s = 0, deflate_s = 0, gcm_bytes = 0, deflate_bytes = 0;
        std::vector<std::uint8_t> out(kStripeBytes);
        for (const Request &r : requests_) {
            const auto t0 = Clock::now();
            if (!isTls(r.kind)) {
                HostSpans::Scope s(spans, "replay_deflate");
                // The Deflate DSA's whole-page pipeline, default config.
                sd::compress::hwDeflateCompress(r.payload.data(),
                                                r.payload.size());
                deflate_s += secondsSince(t0);
                deflate_bytes += static_cast<double>(r.payload.size());
                continue;
            }
            HostSpans::Scope s(spans, "replay_gcm");
            // Striped messages are independent 16 KB chunk records with
            // the chunk index folded into the IV (planStripe's rule).
            const std::size_t chunk = r.kind == Kind::kStripe64k
                                          ? 4 * sd::kPageSize
                                          : r.payload.size();
            sd::crypto::GcmContext ctx(r.key, sd::crypto::Aes::KeySize::k128);
            for (std::size_t off = 0, c = 0; off < r.payload.size();
                 off += chunk, ++c) {
                sd::crypto::GcmIv iv = r.iv;
                iv[11] ^= static_cast<std::uint8_t>(c);
                sd::crypto::IncrementalGcm gcm(ctx, iv, chunk);
                for (std::size_t l = 0; l < gcm.lineCount(); ++l)
                    gcm.processLine(
                        l, r.payload.data() + off + l * sd::kCacheLineSize,
                        out.data() + l * sd::kCacheLineSize);
                gcm.finalTag();
            }
            gcm_s += secondsSince(t0);
            gcm_bytes += static_cast<double>(r.payload.size());
        }
        layer["kernels.gcm_host_s"] = gcm_s;
        layer["kernels.gcm_bytes"] = gcm_bytes;
        layer["kernels.deflate_host_s"] = deflate_s;
        layer["kernels.deflate_bytes"] = deflate_bytes;
    }

    std::string
    describe() const override
    {
        char buf[320];
        std::snprintf(
            buf, sizeof(buf),
            "open loop, 4x2 + 1 CXL channel (600 ns), Poisson %.0fk ops/s, "
            "%zu flows (Zipf s=%.1f), ops per pass: "
            "%s %zu, %s %zu, %s %zu, %s %zu, %s %zu",
            kArrivalRate / 1e3, kFlows, kZipfSkew, kKindNames[0], kMix[0],
            kKindNames[1], kMix[1], kKindNames[2], kMix[2], kKindNames[3],
            kMix[3], kKindNames[4], kMix[4]);
        return buf;
    }

  private:
    std::vector<Request> requests_;
};

} // namespace

std::unique_ptr<Workload>
makeOpenLoop(std::uint64_t seed)
{
    return std::make_unique<OpenLoop>(seed);
}

} // namespace perfbench
