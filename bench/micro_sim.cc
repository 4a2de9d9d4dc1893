/**
 * @file
 * Simulator-throughput microbenchmark: how fast does the *simulator
 * itself* run, independent of what the simulated hardware achieves?
 *
 * Fleet-scale runs (hundreds of thousands of
 * connections, multi-DIMM sweeps) multiply simulated-event counts by
 * orders of magnitude, so the event queue, FR-FCFS scan, bank-state
 * table and per-command tracing are now the wall-clock bottleneck.
 * This bench pins them with a canned workload — a closed loop of
 * 4 KB TLS CompCpys on the standard one-channel rig, the same shape
 * as the golden trace — and reports *simulator* metrics:
 *
 *  - sim_cycles_per_sec: DDR command-clock cycles (625 ps each)
 *    simulated per wall-clock second.
 *  - events_per_sec: EventQueue callbacks executed per wall second.
 *  - ops_per_sec: CompCpy invocations retired per wall second.
 *
 * Three rows isolate the tracing tax on the per-command path:
 * trace_off (tracer disabled — the pure scheduling hot path),
 * trace_spans (span recording on, DDR mirror off), and trace_ddr
 * (full DDR command mirroring, the golden-trace configuration).
 *
 * Every row does the same fixed work: one untimed warm-up batch, then
 * kBatches timed batches. The simulated work (events and ticks) must
 * therefore be identical across trace modes and kernel tiers; the
 * bench re-runs trace_off untimed under every available tier and exits
 * non-zero when any of them differs.
 *
 * Writes BENCH_sim.json; tools/bench_gate.py compares it against
 * bench/baselines/BENCH_sim.json so a scheduler or queue regression
 * fails CI instead of silently making every other bench slower.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "sim/clock.h"

using namespace sd;

namespace {

constexpr std::size_t kMessages = 32;
constexpr std::size_t kBatches = 64; ///< timed batches after the warm-up
constexpr std::size_t kMessageBytes = 4096;

struct Row
{
    std::string name;
    double wall_ns = 0;
    std::uint64_t sim_ticks = 0;
    std::uint64_t events = 0;
    std::uint64_t ops = 0;
    double sim_cycles_per_sec = 0;
    double events_per_sec = 0;
    double ops_per_sec = 0;
};

/** Pre-staged 4 KB TLS messages on a fresh rig (staging untimed). */
std::vector<compcpy::CompCpyParams>
stage(topo::Topology &rig)
{
    Rng rng(7);
    std::vector<compcpy::CompCpyParams> ops;
    std::vector<std::uint8_t> plain(kMessageBytes);
    for (std::size_t i = 0; i < kMessages; ++i) {
        rng.fill(plain.data(), plain.size());
        const Addr sbuf = rig.slot(0).driver.alloc(kMessageBytes);
        const Addr dbuf = rig.slot(0).driver.alloc(2 * kPageSize);
        rig.memory().writeSync(sbuf, plain.data(), plain.size());

        compcpy::CompCpyParams params;
        params.sbuf = sbuf;
        params.dbuf = dbuf;
        params.size = kMessageBytes;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        rng.fill(params.key, sizeof(params.key));
        rng.fill(params.iv.data(), params.iv.size());
        ops.push_back(params);
    }
    return ops;
}

enum class TraceMode
{
    kOff,
    kSpans,
    kDdr,
};

Row
measure(TraceMode mode)
{
    topo::Topology rig(bench::deviceSpec());
    auto ops = stage(rig);

    auto &tr = trace::tracer();
    tr.disable();
    tr.clear();
    if (mode != TraceMode::kOff)
        tr.enable(/*capture_ddr=*/mode == TraceMode::kDdr);

    std::uint64_t message_id = 1;
    auto runBatch = [&] {
        for (auto &op : ops) {
            op.message_id = message_id++;
            rig.slot(0).engine.run(op);
        }
    };
    runBatch(); // warm the caches and the row buffers

    using Clock = std::chrono::steady_clock;
    const Tick tick0 = rig.events().now();
    const std::uint64_t ev0 = rig.events().executed();
    const auto start = Clock::now();
    for (std::size_t b = 0; b < kBatches; ++b) {
        runBatch();
        // Bound the trace buffers: the throughput of *recording* is
        // what we measure, not an ever-growing event log.
        if (mode != TraceMode::kOff)
            tr.clear();
    }
    const auto now = Clock::now();

    Row row;
    row.name = mode == TraceMode::kOff     ? "trace_off"
               : mode == TraceMode::kSpans ? "trace_spans"
                                           : "trace_ddr";
    row.wall_ns =
        std::chrono::duration<double, std::nano>(now - start).count();
    row.sim_ticks = rig.events().now() - tick0;
    row.events = rig.events().executed() - ev0;
    row.ops = kBatches * kMessages;
    const double wall_s = row.wall_ns / 1e9;
    row.sim_cycles_per_sec =
        static_cast<double>(row.sim_ticks / kDramClockPeriod) / wall_s;
    row.events_per_sec = static_cast<double>(row.events) / wall_s;
    row.ops_per_sec = static_cast<double>(row.ops) / wall_s;

    tr.disable();
    tr.clear();
    return row;
}

/** Same simulated work: identical event count and simulated span. */
bool
sameWork(const Row &a, const Row &b)
{
    return a.events == b.events && a.sim_ticks == b.sim_ticks;
}

} // namespace

int
main()
{
    bench::header("Simulator hot-path microbenchmark (DESIGN.md sec. 12)",
                  "sim-cycles/sec and events/sec on a TLS-4K CompCpy loop");

    std::printf("%-12s %16s %14s %12s %10s\n", "mode", "sim_Mcyc/s",
                "events/s", "ops/s", "events/op");
    std::vector<Row> rows;
    bool same_work = true;
    for (const TraceMode mode :
         {TraceMode::kOff, TraceMode::kSpans, TraceMode::kDdr}) {
        Row row = measure(mode);
        std::printf("%-12s %16.2f %14.0f %12.0f %10.1f\n",
                    row.name.c_str(), row.sim_cycles_per_sec / 1e6,
                    row.events_per_sec, row.ops_per_sec,
                    static_cast<double>(row.events) /
                        static_cast<double>(row.ops));
        rows.push_back(row);
        same_work = same_work && sameWork(row, rows.front());
    }
    // Fixed work means the kernels change host time only: re-run the
    // trace_off row untimed under every tier this machine has.
    for (const kernels::KernelTier tier : kernels::availableTiers()) {
        kernels::forceTier(tier);
        const Row row = measure(TraceMode::kOff);
        kernels::clearForcedTier();
        std::printf("tier %-7s %llu events, %llu ticks\n",
                    kernels::tierName(tier),
                    static_cast<unsigned long long>(row.events),
                    static_cast<unsigned long long>(row.sim_ticks));
        same_work = same_work && sameWork(row, rows.front());
    }
    if (!same_work) {
        std::printf("FAIL: simulated work differs across trace modes or "
                    "kernel tiers\n");
        return 1;
    }
    std::vector<bench::JsonFields> json;
    for (const Row &r : rows)
        json.push_back({{"name", r.name},
                        {"sim_cycles_per_sec", r.sim_cycles_per_sec},
                        {"events_per_sec", r.events_per_sec},
                        {"ops_per_sec", r.ops_per_sec},
                        {"sim_ticks", r.sim_ticks},
                        {"events", r.events},
                        {"wall_ns", r.wall_ns}});
    bench::writeBenchJson("BENCH_sim.json",
                          {{"workload", "tls4k_compcpy"},
                           {"messages", kMessages},
                           {"batches", kBatches},
                           {"bytes_per_op", kMessageBytes}},
                          json);

    std::printf("\nThese are *simulator* metrics (wall clock), not\n"
                "simulated-hardware throughput: they gate the cost of\n"
                "the event queue, FR-FCFS scan, bank table and tracing\n"
                "so fleet-scale sweeps stay tractable.\n");
    return 0;
}
