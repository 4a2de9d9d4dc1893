#include "trace/trace.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "common/log.h"

namespace sd::trace {

const char *
stageName(Stage s)
{
    static constexpr std::array<const char *,
                                static_cast<std::size_t>(Stage::kCount)>
        kNames = {
            "flush",   "register", "copy",          "transform",
            "stage",   "recycle",  "force_recycle", "use",
            "alert",   "fault",    "ddr_rd",        "ddr_wr",
            "ddr_act", "ddr_pre",  "submit",        "complete",
        };
    const auto i = static_cast<std::size_t>(s);
    return i < kNames.size() ? kNames[i] : "?";
}

const char *
internString(const std::string &name)
{
    static Mutex mu;
    // Leaked on purpose: interned names must stay valid through
    // static-destruction-order teardown. unordered_set is node-based,
    // so growth never moves the stored strings.
    static auto *pool = new std::unordered_set<std::string>();
    MutexLock lock(mu);
    return pool->insert(name).first->c_str();
}

namespace {

/** JSON-friendly number: integral values print without a fraction. */
void
printNumber(std::ostream &os, double v)
{
    if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << buf;
}

} // namespace

// ----- StatsBlock -----------------------------------------------------------

void
StatsBlock::scalar(const std::string &name, double value)
{
    entries_.emplace_back(name, value);
}

void
StatsBlock::hist(const std::string &name, const Histogram &h)
{
    scalar(name + ".count", static_cast<double>(h.count()));
    scalar(name + ".mean", h.mean());
    scalar(name + ".p50", h.percentile(0.50));
    scalar(name + ".p90", h.percentile(0.90));
    scalar(name + ".p99", h.percentile(0.99));
}

void
StatsBlock::hist(const std::string &name, const LogHistogram &h)
{
    scalar(name + ".count", static_cast<double>(h.count()));
    scalar(name + ".mean", h.mean());
    scalar(name + ".p50", static_cast<double>(h.percentile(0.50)));
    scalar(name + ".p90", static_cast<double>(h.percentile(0.90)));
    scalar(name + ".p99", static_cast<double>(h.percentile(0.99)));
    scalar(name + ".max", static_cast<double>(h.max()));
}

// ----- StatsRegistry --------------------------------------------------------

void
StatsRegistry::add(const std::string &component, Provider provider)
{
    for (auto &[name, p] : providers_) {
        if (name == component) {
            p = std::move(provider);
            return;
        }
    }
    providers_.emplace_back(component, std::move(provider));
}

void
StatsRegistry::remove(const std::string &component)
{
    std::erase_if(providers_,
                  [&](const auto &p) { return p.first == component; });
}

std::vector<std::pair<std::string, StatsBlock>>
StatsRegistry::collect() const
{
    std::vector<std::pair<std::string, StatsBlock>> out;
    out.reserve(providers_.size());
    for (const auto &[name, provider] : providers_) {
        StatsBlock block;
        provider(block);
        out.emplace_back(name, std::move(block));
    }
    return out;
}

void
StatsRegistry::dumpJson(std::ostream &os) const
{
    os << "{";
    bool first_component = true;
    for (const auto &[name, block] : collect()) {
        os << (first_component ? "\n" : ",\n");
        first_component = false;
        os << "  \"" << name << "\": {";
        bool first_row = true;
        for (const auto &[key, value] : block.entries()) {
            os << (first_row ? "\n" : ",\n");
            first_row = false;
            os << "    \"" << key << "\": ";
            printNumber(os, value);
        }
        os << "\n  }";
    }
    os << "\n}\n";
}

void
StatsRegistry::dumpCsv(std::ostream &os) const
{
    os << "component,name,value\n";
    for (const auto &[name, block] : collect()) {
        for (const auto &[key, value] : block.entries()) {
            os << name << "," << key << ",";
            printNumber(os, value);
            os << "\n";
        }
    }
}

// ----- Tracer ---------------------------------------------------------------

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

void
Tracer::enable(bool capture_ddr)
{
    capture_ddr_.store(capture_ddr, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::clear()
{
    MutexLock lock(mu_);
    spans_.clear();
    events_.clear();
    page_span_.clear();
    dropped_ = 0;
}

void
Tracer::setMaxEvents(std::size_t n)
{
    MutexLock lock(mu_);
    max_events_ = n;
}

std::uint32_t
Tracer::beginSpan(const char *kind, Addr sbuf, Addr dbuf,
                  std::size_t bytes, Tick now)
{
    if (!enabled())
        return 0;
    MutexLock lock(mu_);
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size()) + 1;
    span.kind = kind;
    span.sbuf = sbuf;
    span.dbuf = dbuf;
    span.bytes = bytes;
    span.begin = now;
    spans_.push_back(span);
    return span.id;
}

void
Tracer::endSpan(std::uint32_t span, Tick tick)
{
    if (!enabled() || span == 0)
        return;
    MutexLock lock(mu_);
    if (span <= spans_.size())
        spans_[span - 1].end = tick;
}

void
Tracer::bindPage(std::uint64_t page, std::uint32_t span)
{
    if (!enabled() || span == 0)
        return;
    MutexLock lock(mu_);
    page_span_[page] = span;
}

std::uint32_t
Tracer::spanOfPage(std::uint64_t page) const
{
    MutexLock lock(mu_);
    return spanOfPageLocked(page);
}

std::uint32_t
Tracer::spanOfPageLocked(std::uint64_t page) const
{
    const auto it = page_span_.find(page);
    return it == page_span_.end() ? 0 : it->second;
}

void
Tracer::recordLocked(std::uint32_t span, Stage stage, Tick tick,
                     Addr addr)
{
    if (events_.size() >= max_events_) {
        ++dropped_;
        return;
    }
    events_.push_back(TraceEvent{tick, span, stage, addr});
}

void
Tracer::event(std::uint32_t span, Stage stage, Tick tick, Addr addr)
{
    if (!enabled() || span == 0)
        return;
    MutexLock lock(mu_);
    recordLocked(span, stage, tick, addr);
}

void
Tracer::pageEvent(std::uint64_t page, Stage stage, Tick tick, Addr addr)
{
    if (!enabled())
        return;
    MutexLock lock(mu_);
    const std::uint32_t span = spanOfPageLocked(page);
    if (span == 0)
        return;
    recordLocked(span, stage, tick, addr);
}

void
Tracer::ddrEvents(const DdrRecord *recs, std::size_t n)
{
    if (n == 0 || !ddrCapture())
        return;
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < n; ++i)
        recordLocked(spanOfPageLocked(recs[i].addr / kPageSize),
                     recs[i].stage, recs[i].tick, recs[i].addr);
}

void
Tracer::faultEvent(std::uint64_t page, Tick tick, Addr addr)
{
    if (!enabled())
        return;
    MutexLock lock(mu_);
    recordLocked(spanOfPageLocked(page), Stage::kFault, tick, addr);
}

std::vector<Span>
Tracer::spans() const
{
    MutexLock lock(mu_);
    return spans_;
}

std::vector<TraceEvent>
Tracer::events() const
{
    MutexLock lock(mu_);
    return events_;
}

std::uint64_t
Tracer::droppedEvents() const
{
    MutexLock lock(mu_);
    return dropped_;
}

std::vector<TraceEvent>
Tracer::spanEvents(std::uint32_t span) const
{
    MutexLock lock(mu_);
    std::vector<TraceEvent> out;
    for (const auto &e : events_)
        if (e.span == span)
            out.push_back(e);
    return out;
}

bool
Tracer::spanHasStage(std::uint32_t span, Stage stage) const
{
    MutexLock lock(mu_);
    return std::any_of(events_.begin(), events_.end(),
                       [&](const TraceEvent &e) {
                           return e.span == span && e.stage == stage;
                       });
}

void
Tracer::dumpJson(std::ostream &os, const StatsRegistry *stats) const
{
    MutexLock lock(mu_);
    dumpJsonLocked(os, stats);
}

void
Tracer::dumpJsonLocked(std::ostream &os, const StatsRegistry *stats) const
{
    constexpr auto kStages = static_cast<std::size_t>(Stage::kCount);

    struct StageSummary
    {
        std::uint64_t count = 0;
        Tick first = 0;
        Tick last = 0;
    };
    // Per-span per-stage aggregation in one pass over the event log.
    std::vector<std::array<StageSummary, kStages>> per_span(spans_.size());
    std::vector<Tick> span_end(spans_.size(), 0);
    for (const auto &e : events_) {
        if (e.span == 0 || e.span > spans_.size())
            continue;
        auto &s = per_span[e.span - 1][static_cast<std::size_t>(e.stage)];
        if (s.count == 0)
            s.first = e.tick;
        s.last = std::max(s.last, e.tick);
        ++s.count;
        span_end[e.span - 1] = std::max(span_end[e.span - 1], e.tick);
    }

    // Cross-span stage-completion latency (last event of the stage
    // relative to span begin) percentiles.
    std::array<LogHistogram, kStages> stage_latency;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        for (std::size_t st = 0; st < kStages; ++st)
            if (per_span[i][st].count &&
                per_span[i][st].last >= spans_[i].begin)
                stage_latency[st].sample(per_span[i][st].last -
                                         spans_[i].begin);

    os << "{\n  \"version\": 1,\n";
    os << "  \"events\": " << events_.size() << ",\n";
    os << "  \"dropped_events\": " << dropped_ << ",\n";
    os << "  \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        os << (i ? ",\n" : "\n");
        os << "    {\"id\": " << span.id << ", \"kind\": \"" << span.kind
           << "\", \"sbuf\": " << span.sbuf << ", \"dbuf\": " << span.dbuf
           << ", \"bytes\": " << span.bytes
           << ", \"begin\": " << span.begin
           << ", \"end\": " << span_end[i] << ",\n     \"stages\": {";
        bool first = true;
        for (std::size_t st = 0; st < kStages; ++st) {
            const StageSummary &s = per_span[i][st];
            if (!s.count)
                continue;
            os << (first ? "" : ", ");
            first = false;
            os << "\"" << stageName(static_cast<Stage>(st))
               << "\": {\"count\": " << s.count
               << ", \"first\": " << s.first << ", \"last\": " << s.last
               << "}";
        }
        os << "}}";
    }
    os << "\n  ],\n";

    os << "  \"stage_latency\": {";
    bool first = true;
    for (std::size_t st = 0; st < kStages; ++st) {
        const LogHistogram &h = stage_latency[st];
        if (!h.count())
            continue;
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    \"" << stageName(static_cast<Stage>(st))
           << "\": {\"count\": " << h.count() << ", \"mean\": ";
        printNumber(os, h.mean());
        os << ", \"p50\": " << h.percentile(0.50)
           << ", \"p90\": " << h.percentile(0.90)
           << ", \"p99\": " << h.percentile(0.99)
           << ", \"max\": " << h.max() << "}";
    }
    os << "\n  }";

    if (stats) {
        os << ",\n  \"stats\": {";
        bool first_component = true;
        for (const auto &[name, block] : stats->collect()) {
            os << (first_component ? "\n" : ",\n");
            first_component = false;
            os << "    \"" << name << "\": {";
            bool first_row = true;
            for (const auto &[key, value] : block.entries()) {
                os << (first_row ? "" : ", ");
                first_row = false;
                os << "\"" << key << "\": ";
                printNumber(os, value);
            }
            os << "}";
        }
        os << "\n  }";
    }
    os << "\n}\n";
}

void
Tracer::dumpCsv(std::ostream &os) const
{
    MutexLock lock(mu_);
    dumpCsvLocked(os);
}

void
Tracer::dumpCsvLocked(std::ostream &os) const
{
    os << "tick,span,stage,address\n";
    for (const auto &e : events_)
        os << e.tick << "," << e.span << "," << stageName(e.stage) << ","
           << e.addr << "\n";
}

bool
Tracer::writeJsonFile(const std::string &path,
                      const StatsRegistry *stats) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    dumpJson(out, stats);
    return out.good();
}

} // namespace sd::trace
