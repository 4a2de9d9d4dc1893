/**
 * @file
 * perfbench driver: runs one named workload for a requested host time
 * and prints every end-to-end and per-layer metric by name, with its
 * unit and clock. perfbench/run.py builds this binary and selects the
 * metrics BENCHMARK.json names; run it directly as
 *
 *   perfbench --workload tls_closed_1x1 --seed 1 --seconds 10 --trace 0
 *
 * A run makes its inputs from the seed, runs one untimed warm-up pass
 * (the reference), then repeats timed passes of the same fixed work
 * until the time is up. --trace 1 splits the time between untraced and
 * traced passes (tracer spans on) and reports the per-layer numbers;
 * end-to-end numbers always come from untraced passes. The process
 * exits non-zero when any output fails verification or any pass's
 * simulated results differ from the reference.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "kernels/dispatch.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{tls_closed_1x1|mixed_open_4x2_cxl|server_sweep} "
                 "--seed N --seconds S --trace {0|1} [--out DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            a.trace = std::strtol(val, &end, 10) != 0;
        } else if (key == "--out") {
            a.out_dir = val;
        } else {
            usage(("unknown argument " + key).c_str());
        }
        if (end && *end != '\0')
            usage(("bad value for " + key).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
    const char *clock; ///< "host", "simulated" or "-"
};

/** One per-layer metric definition; idle layers report 0. */
struct LayerDef
{
    std::string name;
    const char *unit;
    const char *clock;
};

const std::vector<LayerDef> &
perLayerCatalogue()
{
    static const std::vector<LayerDef> cat = [] {
        const char *sim = "simulated";
        const char *host = "host";
        std::vector<LayerDef> c = {
            {"sim.events_per_op", "count", sim},
            {"sim.host_ns_per_event", "ns/event", host},
            {"sim.mcycles_per_host_s", "Mcycles/s", host},
            {"mem.row_hit_ratio", "ratio", sim},
            {"mem.bus_util", "ratio", sim},
            {"mem.turnarounds_per_op", "count", sim},
            {"mem.sched_passes_per_op", "count", sim},
            {"mem.alert_retries_per_op", "count", sim},
            {"mem.cxl.busy_ratio", "ratio", sim},
            {"mem.cxl.queue_ns_per_transfer", "sim_ns", sim},
            {"mem.cxl.transfers_per_op", "count", sim},
            {"cache.llc_miss_ratio", "ratio", sim},
            {"cache.writebacks_per_op", "count", sim},
            {"smartdimm.self_recycle_ratio", "ratio", sim},
            {"smartdimm.alert_n_per_op", "count", sim},
            {"smartdimm.rejected_registrations", "count", sim},
            {"smartdimm.scratch_reads_per_op", "count", sim},
            {"compcpy.queue_wait_us.p50", "sim_us", sim},
            {"compcpy.queue_wait_us.p99", "sim_us", sim},
            {"compcpy.service_us.p50", "sim_us", sim},
            {"compcpy.service_us.p99", "sim_us", sim},
            {"compcpy.use_us.p50", "sim_us", sim},
            {"compcpy.use_us.p99", "sim_us", sim},
            {"compcpy.force_recycles_per_op", "count", sim},
            {"compcpy.rejected_full", "count", sim},
            {"topo.home_hit_ratio", "ratio", sim},
            {"topo.shed_to_sibling", "count", sim},
            {"topo.cpu_fallback_ratio", "ratio", sim},
            {"topo.migrations", "count", sim},
            {"topo.stripe_chunks", "count", sim},
            {"topo.peak_backlog", "count", sim},
            {"topo.place_submit_host_ns", "ns/op", host},
            {"kernels.gcm_host_s", "s", host},
            {"kernels.deflate_host_s", "s", host},
            {"kernels.gcm_ns_per_byte", "ns/B", host},
            {"kernels.deflate_ns_per_byte", "ns/B", host},
            {"kernels.host_share", "ratio", host},
            {"app.contention_host_s", "s", host},
            {"app.evaluate_host_s", "s", host},
            {"app.contention_ms_per_call", "ms/call", host},
            {"app.evaluate_ms_per_call", "ms/call", host},
            {"app.contention_share", "ratio", host},
            {"app.leak_fraction.4k", "ratio", sim},
            {"app.leak_fraction.16k", "ratio", sim},
            {"app.leak_fraction.64k", "ratio", sim},
            {"offload.rps_gain.tls_4k", "ratio", sim},
            {"offload.rps_gain.tls_16k", "ratio", sim},
            {"offload.rps_gain.tls_64k", "ratio", sim},
            {"offload.rps_gain.deflate_4k", "ratio", sim},
            {"offload.rps_gain.deflate_16k", "ratio", sim},
            {"offload.rps_gain.deflate_64k", "ratio", sim},
            {"paper_err_pct", "%", sim},
            {"paper_err_pct.heldout", "%", sim},
            {"trace.overhead_ratio", "ratio", host},
        };
        for (const char *p : {"cpu", "smartnic", "qat", "smartdimm"})
            for (const char *who : {"nginx", "mcf"})
                c.push_back({std::string("offload.corun_slowdown.") + p +
                                 "." + who,
                             "%", sim});
        for (const std::string &seg : waterfallSegments())
            for (const char *q : {"p50", "p99"})
                c.push_back({"waterfall." + seg + "_us." + q, "sim_us", sim});
        return c;
    }();
    return cat;
}

/** Print @p v as a JSON number with every digit (non-finite -> 0). */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
               "\", \"clock\": \"" + metrics[i].clock + "\"}";
    return out + "}";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Repeat @p wl until @p seconds of host time pass (at least 3 passes). */
std::vector<PassResult>
timedPasses(Workload &wl, double seconds, HostSpans &spans)
{
    std::vector<PassResult> passes;
    const auto start = Clock::now();
    do {
        passes.push_back(wl.run(spans));
    } while (passes.size() < 3 || secondsSince(start) < seconds);
    return passes;
}

std::vector<double>
field(const std::vector<PassResult> &passes, double PassResult::*member)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(p.*member);
    return v;
}

/**
 * Host time of one pass's work with the host's interference filtered
 * out. Every pass does identical work in identical slices, and other
 * tenants of the host only ever slow a slice down, so each slice's
 * fastest time over all passes is its least-disturbed measurement;
 * the result is their sum. Returns 0 when the passes' slices differ.
 */
double
fastestSlices(const std::vector<PassResult> &passes)
{
    std::vector<double> best = passes.front().slices;
    for (const PassResult &p : passes) {
        if (p.slices.size() != best.size())
            return 0;
        for (std::size_t k = 0; k < best.size(); ++k)
            best[k] = std::min(best[k], p.slices[k]);
    }
    double sum = 0;
    for (double s : best)
        sum += s;
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> wl;
    if (args.workload == "tls_closed_1x1")
        wl = makeClosedLoop(args.seed);
    else if (args.workload == "mixed_open_4x2_cxl")
        wl = makeOpenLoop(args.seed);
    else if (args.workload == "server_sweep")
        wl = makeServerSweep(args.seed);
    else
        usage(("unknown workload " + args.workload).c_str());

    const char *tier = sd::kernels::tierName(sd::kernels::activeTier());
    std::printf("perfbench workload=%s seed=%llu trace=%d kernel_tier=%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                tier);
    std::printf("  %s\n", wl->describe().c_str());
    std::printf("  every pass builds a fresh system, so modelled caches, row "
                "buffers and queues start empty; one untimed warm-up pass "
                "precedes the timed ones\n");

    HostSpans off; // stays disabled: untraced passes record nothing
    std::vector<std::string> problems;
    std::uint64_t attempted = 0, failed = 0;
    auto account = [&](const PassResult &p, const char *what) {
        attempted += p.attempted;
        failed += p.failed;
        for (const std::string &e : p.errors)
            problems.push_back(std::string(what) + ": " + e);
    };

    const PassResult ref = wl->run(off);
    account(ref, "warm-up pass");
    auto checkSame = [&](const PassResult &p, const char *what) {
        if (p.digest != ref.digest || p.events != ref.events ||
            p.sim_ticks != ref.sim_ticks)
            problems.push_back(std::string(what) +
                               ": simulated results differ from the "
                               "reference pass");
    };

    // Determinism across kernel tiers: the table tier must reproduce
    // the default tier's simulated results bit for bit.
    bool tier_checked = false;
    if (args.workload == "tls_closed_1x1") {
        sd::kernels::forceTier(sd::kernels::KernelTier::kTable);
        const PassResult p = wl->run(off);
        sd::kernels::clearForcedTier();
        account(p, "table-tier pass");
        checkSame(p, "table-tier pass");
        tier_checked = true;
    }

    const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
    const std::vector<PassResult> passes = timedPasses(*wl, untraced_s, off);
    for (const PassResult &p : passes) {
        account(p, "timed pass");
        checkSame(p, "timed pass");
    }
    const std::vector<double> walls = field(passes, &PassResult::wall_s);
    const double wall_s = fastestSlices(passes);
    if (wall_s == 0)
        problems.push_back("timed passes split their work differently");
    const double setup_s = median(field(passes, &PassResult::setup_s));

    // ----- end-to-end metrics ------------------------------------------------
    std::vector<double> lat_us;
    for (sd::Tick t : ref.latency)
        lat_us.push_back(static_cast<double>(t) / kTicksPerUs);
    const double p50 = percentile(lat_us, 0.50);
    const double p99 = percentile(lat_us, 0.99);
    // Nearest rank: p99 is sample ceil(0.99 n); the rest rank above it.
    const auto p99_rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(lat_us.size())));
    const std::size_t beyond = lat_us.size() - p99_rank;

    // server_sweep reports its modelled servers' throughput instead.
    const double done = static_cast<double>(ref.attempted - ref.failed);
    const double sim_ops_per_s =
        !wl->cycleLevel() ? ref.layer.at("sim_ops_per_s")
        : ref.sim_ticks   ? done * 1e12 / static_cast<double>(ref.sim_ticks)
                          : 0;
    std::vector<Metric> e2e = {
        {"wall_s", wall_s, "s", "host"},
        {"setup_s", setup_s, "s", "host"},
        {"peak_rss_mb", peakRssMb(), "MB", "host"},
        {"sim_ops_per_s", sim_ops_per_s, "ops/s", "simulated"},
    };
    if (wl->cycleLevel()) {
        e2e.push_back({"sim_p50_us", p50, "us", "simulated"});
        e2e.push_back({"sim_p99_us", p99, "us", "simulated"});
    }
    e2e.push_back({"failed_ratio",
                   static_cast<double>(failed) /
                       static_cast<double>(std::max<std::uint64_t>(1, attempted)),
                   "ratio", "-"});
    if (!wl->cycleLevel())
        e2e.push_back({"paper_err_pct", ref.layer.at("paper_err_pct"), "%",
                       "simulated"});

    std::printf("passes: %zu timed over %.1f s (+1 warm-up%s); wall_s sums "
                "each of the %zu work slices' fastest time (whole passes: "
                "min %.4f, median %.4f, max %.4f); setup_s is the median\n",
                passes.size(), untraced_s,
                tier_checked ? ", +1 table-tier check" : "",
                passes.front().slices.size(),
                *std::min_element(walls.begin(), walls.end()), median(walls),
                *std::max_element(walls.begin(), walls.end()));
    if (wl->cycleLevel())
        std::printf("simulated work per pass: %llu events over %.3f us\n",
                    static_cast<unsigned long long>(ref.events),
                    static_cast<double>(ref.sim_ticks) / kTicksPerUs);
    std::printf("end-to-end metrics:\n");
    for (const Metric &m : e2e)
        std::printf("  %-14s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                    m.unit, m.clock);
    if (wl->cycleLevel()) {
        std::printf("  latency: %zu samples per pass, %zu ranked above "
                    "p99, max %.3f us; measured from each op's due tick to "
                    "the end of its USE\n",
                    lat_us.size(), beyond, percentile(lat_us, 1.0));
        if (args.workload == "mixed_open_4x2_cxl")
            std::printf("  generator lateness: 0 (every arrival is "
                        "scheduled at its exact due tick)\n");
    } else {
        std::printf("  sim_ops_per_s: geometric mean of the modelled "
                    "requests/s over the supported solo points\n");
        std::printf("  sim_p50_us, sim_p99_us: n/a (no cycle-level ops in "
                    "this workload)\n");
    }
    if (wl->cycleLevel())
        std::printf("  paper_err_pct: n/a (no hardware reference)\n");
    wl->printAnchors();
    std::printf("determinism: %zu passes %s the reference digest "
                "%016llx%s\n",
                passes.size() + (tier_checked ? 1 : 0),
                problems.empty() ? "match" : "CHECK",
                static_cast<unsigned long long>(ref.digest),
                tier_checked ? " (table tier included)" : "");
    std::printf("host metrics are comparable only between runs on the same "
                "kernel tier (%s)\n",
                tier);

    // ----- traced passes: per-layer metrics ------------------------------------
    std::vector<Metric> layer;
    std::vector<HostSpans::Summary> span_summary;
    if (args.trace) {
        std::map<std::string, double> values = ref.layer;
        HostSpans spans;
        spans.setEnabled(true);
        auto &tracer = sd::trace::tracer();
        tracer.clear();
        tracer.setMaxEvents(std::size_t{1} << 24);
        std::vector<PassResult> traced;
        const auto start = Clock::now();
        do {
            tracer.clear();
            tracer.enable(/*capture_ddr=*/false);
            traced.push_back(wl->run(spans));
            tracer.disable();
            if (tracer.droppedEvents() > 0)
                problems.push_back("traced pass: tracer dropped events");
            if (traced.size() == 1)
                waterfallMetrics(tracer, values);
        } while (secondsSince(start) < args.seconds / 2);
        tracer.clear();
        for (const PassResult &p : traced) {
            account(p, "traced pass");
            checkSame(p, "traced pass");
        }
        wl->replayKernels(values, spans);

        const double traced_n = static_cast<double>(traced.size());
        const double traced_wall = fastestSlices(traced);
        values["trace.overhead_ratio"] = traced_wall / wall_s;
        if (ref.events > 0) {
            values["sim.events_per_op"] =
                static_cast<double>(ref.events) /
                static_cast<double>(ref.attempted);
            values["sim.host_ns_per_event"] =
                wall_s * 1e9 / static_cast<double>(ref.events);
            values["sim.mcycles_per_host_s"] =
                static_cast<double>(ref.sim_ticks / kDramCycleTicks) /
                wall_s / 1e6;
        }
        values["topo.place_submit_host_ns"] =
            spans.total("place_submit") * 1e9 /
            (traced_n * static_cast<double>(ref.attempted));
        auto per_byte = [&](const char *secs, const char *bytes) {
            return values[bytes] > 0 ? values[secs] * 1e9 / values[bytes] : 0;
        };
        values["kernels.gcm_ns_per_byte"] =
            per_byte("kernels.gcm_host_s", "kernels.gcm_bytes");
        values["kernels.deflate_ns_per_byte"] =
            per_byte("kernels.deflate_host_s", "kernels.deflate_bytes");
        values["kernels.host_share"] =
            (values["kernels.gcm_host_s"] + values["kernels.deflate_host_s"]) /
            wall_s;
        if (!wl->cycleLevel()) {
            const double calls = values["app.contention_calls"];
            values["app.evaluate_host_s"] =
                spans.total("evaluate_server") / traced_n;
            values["app.evaluate_ms_per_call"] =
                values["app.evaluate_host_s"] * 1e3 / calls;
            values["app.contention_ms_per_call"] =
                values["app.contention_host_s"] * 1e3 / calls;
            values["app.contention_share"] =
                values["app.contention_host_s"] / values["app.evaluate_host_s"];
        }
        for (const LayerDef &def : perLayerCatalogue()) {
            const auto it = values.find(def.name);
            layer.push_back({def.name,
                             it == values.end() ? 0.0 : it->second, def.unit,
                             def.clock});
        }
        span_summary = spans.summarize();

        std::printf("per-layer metrics (%zu traced passes; 0 = layer idle in "
                    "this workload):\n",
                    traced.size());
        for (const Metric &m : layer)
            std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
        std::printf("kernel tier: %s\n", tier);
        std::printf("host-time spans (traced passes + replays):\n");
        std::printf("  %-20s %8s %12s %12s\n", "span", "count", "total_s",
                    "self_s");
        for (const auto &s : span_summary)
            std::printf("  %-20s %8llu %12.6f %12.6f\n", s.name.c_str(),
                        static_cast<unsigned long long>(s.count), s.total_s,
                        s.self_s);
    }

    const bool correct = problems.empty() && failed == 0;
    for (const std::string &p : problems)
        std::printf("FAILED %s\n", p.c_str());

    if (!args.out_dir.empty()) {
        const std::string path = args.out_dir + "/" + args.workload + ".seed" +
                                 std::to_string(args.seed) +
                                 (args.trace ? ".trace" : "") + ".json";
        std::ofstream os(path);
        os << "{\"workload\": \"" << args.workload << "\", \"seed\": "
           << args.seed << ", \"kernel_tier\": \"" << tier
           << "\", \"correct\": " << (correct ? "true" : "false")
           << ", \"end_to_end\": " << metricsJson(e2e)
           << ", \"per_layer\": " << metricsJson(layer)
           << ", \"wall_s_per_pass\": [";
        for (std::size_t i = 0; i < walls.size(); ++i)
            os << (i ? ", " : "") << num(walls[i]);
        os << "], \"host_spans\": [";
        for (std::size_t i = 0; i < span_summary.size(); ++i) {
            const auto &s = span_summary[i];
            os << (i ? ", " : "") << "{\"name\": \"" << s.name
               << "\", \"count\": " << s.count
               << ", \"total_s\": " << num(s.total_s)
               << ", \"self_s\": " << num(s.self_s) << "}";
        }
        os << "]}\n";
        if (!os)
            std::printf("could not write %s\n", path.c_str());
        else
            std::printf("wrote %s\n", path.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"kernel_tier\": \"%s\", \"end_to_end\": %s, "
                "\"per_layer\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), tier,
                metricsJson(e2e).c_str(), metricsJson(layer).c_str());
    return correct ? 0 : 1;
}
