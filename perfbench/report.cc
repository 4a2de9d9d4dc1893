#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "cache/memory_system.h"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ----- HostSpans -------------------------------------------------------------

HostSpans::Scope::Scope(HostSpans &owner, const char *name) : owner_(owner)
{
    if (!owner_.enabled_)
        return;
    index_ = static_cast<std::int64_t>(owner_.records_.size());
    owner_.records_.push_back(
        Record{name, owner_.open_, Clock::now(), Clock::time_point{}});
    owner_.open_ = index_;
}

HostSpans::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Record &rec = owner_.records_[static_cast<std::size_t>(index_)];
    rec.end = Clock::now();
    owner_.open_ = rec.parent;
}

std::vector<HostSpans::Summary>
HostSpans::summarize() const
{
    std::vector<double> child_s(records_.size(), 0.0);
    for (const Record &rec : records_)
        if (rec.parent >= 0)
            child_s[static_cast<std::size_t>(rec.parent)] +=
                std::chrono::duration<double>(rec.end - rec.begin)
                    .count();

    std::vector<Summary> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &rec = records_[i];
        auto it = std::find_if(out.begin(), out.end(),
                               [&](const Summary &s) {
                                   return s.name == rec.name;
                               });
        if (it == out.end()) {
            out.push_back(Summary{rec.name, 0, 0, 0});
            it = out.end() - 1;
        }
        const double dur =
            std::chrono::duration<double>(rec.end - rec.begin).count();
        ++it->count;
        it->total_s += dur;
        it->self_s += dur - child_s[i];
    }
    return out;
}

double
HostSpans::total(const std::string &name) const
{
    for (const Summary &s : summarize())
        if (s.name == name)
            return s.total_s;
    return 0;
}

void
Workload::replayKernels(std::map<std::string, double> &, HostSpans &)
{
}

void
Workload::printAnchors() const
{
    std::printf("paper anchors: none. This workload has no hardware "
                "reference; its simulated numbers are unvalidated.\n");
}

// ----- digests and stats ------------------------------------------------------

void
Digest::bytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
digestRegistry(const sd::trace::StatsRegistry &registry, Digest &digest)
{
    for (const auto &[component, block] : registry.collect()) {
        digest.str(component);
        for (const auto &[name, value] : block.entries()) {
            digest.str(name);
            digest.f64(value);
        }
    }
}

double
sumStat(const std::vector<std::pair<std::string, sd::trace::StatsBlock>>
            &rows,
        const std::string &prefix, const std::string &name)
{
    double sum = 0;
    for (const auto &[component, block] : rows) {
        if (component.compare(0, prefix.size(), prefix) != 0)
            continue;
        for (const auto &[key, value] : block.entries())
            if (key == name)
                sum += value;
    }
    return sum;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

void
memoryLayerMetrics(const sd::trace::StatsRegistry &registry,
                   std::uint64_t ops, sd::Tick sim_ticks,
                   std::map<std::string, double> &out)
{
    const auto rows = registry.collect();
    const double n = static_cast<double>(ops);
    auto sum = [&rows](const char *prefix, const char *name) {
        return sumStat(rows, prefix, name);
    };

    // Memory controllers (every channel, local and far).
    double channels = 0;
    for (const auto &row : rows)
        if (row.first.compare(0, 5, "mc.ch") == 0)
            ++channels;
    const double hits = sum("mc.ch", "row_hits");
    out["mem.row_hit_ratio"] =
        ratio(hits, hits + sum("mc.ch", "row_misses") +
                        sum("mc.ch", "row_conflicts"));
    out["mem.bus_util"] = ratio(
        sum("mc.ch", "bus_busy_cycles"),
        channels * static_cast<double>(sim_ticks / kDramCycleTicks));
    out["mem.turnarounds_per_op"] = ratio(sum("mc.ch", "turnarounds"), n);
    out["mem.sched_passes_per_op"] =
        ratio(sum("mc.ch", "sched_passes"), n);
    out["mem.alert_retries_per_op"] =
        ratio(sum("mc.ch", "alert_retries"), n);

    // CXL.mem links (absent on local-only topologies).
    const double transfers = sum("cxl.ch", "transfers");
    out["mem.cxl.busy_ratio"] = ratio(sum("cxl.ch", "busy_ticks"),
                                      static_cast<double>(sim_ticks));
    out["mem.cxl.queue_ns_per_transfer"] =
        ratio(sum("cxl.ch", "queue_ticks") / 1e3, transfers);
    out["mem.cxl.transfers_per_op"] = ratio(transfers, n);

    // LLC.
    const double llc_misses = sum("llc", "misses");
    out["cache.llc_miss_ratio"] =
        ratio(llc_misses, llc_misses + sum("llc", "hits"));
    out["cache.writebacks_per_op"] = ratio(sum("llc", "writebacks"), n);

    // SmartDIMM buffer devices.
    const double self = sum("smartdimm", "scratchpad.self_recycles");
    out["smartdimm.self_recycle_ratio"] =
        ratio(self, self + sum("smartdimm", "scratchpad.force_recycles"));
    out["smartdimm.alert_n_per_op"] = ratio(sum("smartdimm", "alert_n"), n);
    out["smartdimm.rejected_registrations"] =
        sum("smartdimm", "rejected_registrations");
    out["smartdimm.scratch_reads_per_op"] =
        ratio(sum("smartdimm", "dbuf_scratch_reads"), n);

    // CompCpy engines and their work queues.
    out["compcpy.force_recycles_per_op"] =
        ratio(sum("compcpy", "force_recycles"), n);
    out["compcpy.rejected_full"] = sum("queue", "rejected_full");
}

void
runSliced(sd::EventQueue &events, PassResult &res)
{
    const auto start = Clock::now();
    auto mark = start;
    while (!events.empty()) {
        events.runUntil(events.now() + kSliceTicks);
        const auto now = Clock::now();
        res.slices.push_back(
            std::chrono::duration<double>(now - mark).count());
        mark = now;
    }
    res.wall_s = std::chrono::duration<double>(mark - start).count();
}

// ----- the consumer's side of an op ------------------------------------------

void
readBack(sd::cache::MemorySystem &memory, sd::Addr addr, std::size_t bytes,
         std::vector<std::uint8_t> &out, std::function<void()> done)
{
    const std::size_t lines = sd::divCeil(bytes, sd::kCacheLineSize);
    out.assign(lines * sd::kCacheLineSize, 0);
    auto pending = std::make_shared<std::size_t>(lines);
    auto finish = std::make_shared<std::function<void()>>(std::move(done));
    for (std::size_t l = 0; l < lines; ++l)
        memory.readLine(addr + l * sd::kCacheLineSize,
                        out.data() + l * sd::kCacheLineSize,
                        [pending, finish, &out, bytes](sd::Tick) {
                            if (--*pending > 0)
                                return;
                            out.resize(bytes);
                            (*finish)();
                        });
}

bool
gcmRecordMatches(const std::uint8_t (&key)[16], const sd::crypto::GcmIv &iv,
                 const std::uint8_t *record, std::size_t size,
                 const std::uint8_t *plain)
{
    sd::crypto::GcmContext ctx(key, sd::crypto::Aes::KeySize::k128);
    sd::crypto::GcmTag tag;
    std::memcpy(tag.data(), record + size, tag.size());
    std::vector<std::uint8_t> out(size);
    return ctx.decrypt(iv, record, size, tag, out.data()) &&
           std::equal(out.begin(), out.end(), plain);
}

void
CompCpyTimes::report(std::map<std::string, double> &out) const
{
    const std::pair<const char *, const std::vector<double> *> rows[] = {
        {"compcpy.queue_wait_us", &wait},
        {"compcpy.service_us", &service},
        {"compcpy.use_us", &use}};
    for (const auto &[name, values] : rows) {
        out[std::string(name) + ".p50"] = percentile(*values, 0.50);
        out[std::string(name) + ".p99"] = percentile(*values, 0.99);
    }
}

// ----- statistics -------------------------------------------------------------

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ----- simulated-time waterfall -----------------------------------------------

const std::vector<std::string> &
waterfallSegments()
{
    static const std::vector<std::string> segments = {
        "flush", "register", "copy", "dsa", "complete", "recycle", "use"};
    return segments;
}

void
waterfallMetrics(const sd::trace::Tracer &tracer,
                 std::map<std::string, double> &out)
{
    using sd::trace::Stage;
    // Last stamp of each boundary stage per span; kSubmit opens it.
    static constexpr Stage kBoundary[] = {
        Stage::kFlush, Stage::kRegister, Stage::kCopy,   Stage::kStage,
        Stage::kComplete, Stage::kRecycle, Stage::kUse};
    constexpr std::size_t kN = std::size(kBoundary);
    struct Stamps
    {
        sd::Tick submit = 0;
        bool submitted = false;
        sd::Tick last[kN] = {};
    };
    std::vector<Stamps> spans(tracer.spans().size() + 1);
    for (const sd::trace::TraceEvent &ev : tracer.events()) {
        if (ev.span == 0 || ev.span >= spans.size())
            continue;
        Stamps &s = spans[ev.span];
        if (ev.stage == Stage::kSubmit) {
            s.submit = ev.tick;
            s.submitted = true;
            continue;
        }
        for (std::size_t k = 0; k < kN; ++k)
            if (ev.stage == kBoundary[k])
                s.last[k] = std::max(s.last[k], ev.tick);
    }

    std::vector<std::vector<double>> seg(kN);
    for (const Stamps &s : spans) {
        if (!s.submitted || s.last[kN - 1] == 0) // never USEd
            continue;
        // Monotone chain: each boundary is the later of its own last
        // stamp and the previous boundary, so segments never go
        // negative and they sum to submit -> end of USE.
        sd::Tick prev = s.submit;
        for (std::size_t k = 0; k < kN; ++k) {
            const sd::Tick b = std::max(prev, s.last[k]);
            seg[k].push_back(static_cast<double>(b - prev) / kTicksPerUs);
            prev = b;
        }
    }
    const auto &names = waterfallSegments();
    for (std::size_t k = 0; k < kN; ++k) {
        out["waterfall." + names[k] + "_us.p50"] = percentile(seg[k], 0.50);
        out["waterfall." + names[k] + "_us.p99"] = percentile(seg[k], 0.99);
    }
}

} // namespace perfbench
