/**
 * @file
 * Fig. 9: rdCAS/wrCAS traces collected from the SmartDIMM prototype
 * while four cores run concurrent CompCpy offloads. Reads belong to
 * the in-flight CompCpys' source buffers; writes are self-recycle
 * drains of earlier destination buffers. Addresses within one
 * CompCpy rise monotonically.
 *
 * Emits a textual summary plus a `fig09_trace.csv` with
 * (tick, type, address) rows for plotting.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "mem/dram_command.h"

using namespace sd;

namespace {

/** Capture CAS commands to registered buffer ranges. */
class Trace : public mem::CommandObserver
{
  public:
    struct Row
    {
        Tick tick;
        bool is_write;
        Addr addr;
    };

    void
    observe(const mem::DdrCommand &cmd) override
    {
        if (cmd.type == mem::DdrCommandType::kReadCas ||
            cmd.type == mem::DdrCommandType::kWriteCas)
            rows.push_back(Row{cmd.issue,
                               cmd.type ==
                                   mem::DdrCommandType::kWriteCas,
                               cmd.addr});
    }

    std::vector<Row> rows;
};

} // namespace

int
main()
{
    bench::header("Figure 9",
                  "rd/wrCAS memory trace of 4 cores running "
                  "concurrent CompCpys (32 MB apart)");

    topo::Topology rig(bench::deviceSpec(/*llc=*/4ull << 20));
    Trace trace;
    rig.memory().controller(0).setObserver(&trace);

    // Span tracing with the DDR mirror on: the spans JSON carries the
    // same CAS stream as the CSV, attributed to CompCpy spans.
    sd::trace::tracer().clear();
    sd::trace::tracer().enable(/*capture_ddr=*/true);

    Rng rng(1);
    constexpr int kCores = 4;
    constexpr int kCallsPerCore = 6;
    constexpr std::size_t kMsg = 16384;

    // Interleave the cores' CompCpys: each call's async flow advances
    // whenever the event loop runs, so the four streams overlap on
    // the channel exactly as four cores would.
    std::uint64_t message_id = 1;
    for (int call = 0; call < kCallsPerCore; ++call) {
        for (int core = 0; core < kCores; ++core) {
            // Buffers spaced 32 MB apart per the paper's setup.
            const Addr sbuf = (1ULL << 20) +
                              static_cast<Addr>(core) * (32ULL << 20) +
                              static_cast<Addr>(call) * (1ULL << 20);
            const Addr dbuf = sbuf + (16ULL << 20);
            std::vector<std::uint8_t> data(kMsg);
            rng.fill(data.data(), data.size());
            rig.memory().writeSync(sbuf, data.data(), data.size());

            compcpy::CompCpyParams params;
            params.sbuf = sbuf;
            params.dbuf = dbuf;
            params.size = kMsg;
            params.ulp = smartdimm::UlpKind::kTlsEncrypt;
            params.message_id = message_id++;
            rng.fill(params.key, sizeof(params.key));
            rng.fill(params.iv.data(), params.iv.size());

            const auto on_done = [&rig, dbuf](
                                     const compcpy::CompletionRecord &) {
                // USE: flush the destination so self-recycle drains.
                rig.slot(0).engine.use(dbuf, kMsg + kPageSize, [] {});
            };
            if (!rig.slot(0).queue.submit(
                    compcpy::Descriptor::single(params), 0, on_done)) {
                std::fprintf(stderr, "fig09: the queue rejected a call\n");
                return 1;
            }
        }
        rig.events().run();
    }
    rig.events().run();

    // Summarise.
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (const auto &row : trace.rows)
        (row.is_write ? writes : reads)++;
    std::printf("trace rows: %zu (%llu rdCAS, %llu wrCAS)\n",
                trace.rows.size(),
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(writes));

    // Monotonicity check within each CompCpy's source range (the
    // paper's magnified inset).
    std::vector<Addr> sbuf_reads;
    for (const auto &row : trace.rows)
        if (!row.is_write && row.addr >= (1ULL << 20) &&
            row.addr < (1ULL << 20) + kMsg)
            sbuf_reads.push_back(row.addr);
    const bool monotonic =
        std::is_sorted(sbuf_reads.begin(), sbuf_reads.end());
    std::printf("first CompCpy sbuf rdCAS count: %zu, monotonic: %s\n",
                sbuf_reads.size(), monotonic ? "yes" : "no");

    std::FILE *csv = std::fopen("fig09_trace.csv", "w");
    if (csv) {
        std::fprintf(csv, "tick,type,address\n");
        for (const auto &row : trace.rows)
            std::fprintf(csv, "%llu,%s,%llu\n",
                         static_cast<unsigned long long>(row.tick),
                         row.is_write ? "wr" : "rd",
                         static_cast<unsigned long long>(row.addr));
        std::fclose(csv);
        std::printf("wrote fig09_trace.csv (%zu rows)\n",
                    trace.rows.size());
    }

    const auto &arb = rig.slot(0).device.stats();
    std::printf("device: sbuf_reads=%llu recycles=%llu alert_n=%llu\n",
                static_cast<unsigned long long>(arb.sbuf_reads),
                static_cast<unsigned long long>(arb.dbuf_recycles),
                static_cast<unsigned long long>(arb.alert_n));

    sd::trace::StatsRegistry registry;
    rig.registerStats(registry);
    bench::writeStatsJson("fig09", registry);
    bench::writeSpansJson("fig09", &registry);
    sd::trace::tracer().disable();
    std::printf("\nPaper shape: reads (sources) interleaved with "
                "writes (self-recycles of earlier destinations);\n"
                "addresses increase monotonically within a CompCpy.\n");
    return 0;
}
