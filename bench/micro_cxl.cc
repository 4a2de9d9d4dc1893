/**
 * @file
 * CXL.mem far-tier microbenchmark: TLS-4K CompCpy offload throughput
 * on a SmartDIMM behind a CXL link, swept over link round-trip
 * latency (local DDR4, then 300/600/1500 ns), against the CPU path
 * reaching the same far-homed data.
 *
 * Two views per point:
 *  - measured: a fixed batch of records driven closed-loop through a
 *    far slot's withheld-response work queue in the simulator —
 *    doorbells, registration MMIO and completions all cross the
 *    CxlLink flit queue, and the poll traffic the withheld read saved
 *    is reported from the queue stats;
 *  - modeled: the offload cost model's CXL.mem placement vs the CPU
 *    placement with the same link latency added to every demand miss
 *    (speedup_vs_cpu = CPU cycles / tier cycles per message).
 *
 * Paper anchor: near-data ULP execution pays off *more* at far-memory
 * latencies — the CPU path degrades with every miss paying the link
 * round trip while the near-data transform only pays it on its
 * control path, so the CXL tier must beat the CPU path at >= 600 ns
 * and the advantage must grow with latency.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "offload/placement.h"
#include "topo/dispatcher.h"

using namespace sd;
using compcpy::CompletionRecord;
using compcpy::Descriptor;

namespace {

constexpr std::size_t kOffloads = 192;
constexpr std::size_t kRecordBytes = 4096; // TLS-4K

struct Row
{
    char name[12] = "";
    double link_ns = 0; ///< 0 == locally attached
    double ops_per_sec = 0;
    double p50_us = 0;
    double p99_us = 0;
    double speedup_vs_cpu = 0; ///< model: CPU cycles / tier cycles
    std::uint64_t polls_saved = 0;
    std::uint64_t poll_bytes_saved = 0;
    std::uint64_t withheld_completions = 0;
    std::uint64_t link_transfers = 0;
};

/** Modeled CPU-path vs tier-path cycles per record at @p link_ns. */
double
modeledSpeedup(double link_ns)
{
    offload::CostModel model;
    model.cxl.round_trip_ns = link_ns > 0 ? link_ns : 100.0;
    offload::LoadContext ctx;
    ctx.far_mem_extra_ns = link_ns; // data homed on the far tier
    const auto cpu =
        offload::makePlacement(offload::PlacementKind::kCpu, model);
    const auto tier = offload::makePlacement(
        link_ns > 0 ? offload::PlacementKind::kCxlMem
                    : offload::PlacementKind::kSmartDimm,
        model);
    const double cpu_cycles =
        cpu->messageCost(offload::Ulp::kTlsEncrypt, kRecordBytes, ctx)
            .cpu_cycles;
    const double tier_cycles =
        tier->messageCost(offload::Ulp::kTlsEncrypt, kRecordBytes, ctx)
            .cpu_cycles;
    return cpu_cycles / tier_cycles;
}

Row
runPoint(const char *name, double link_ns)
{
    topo::TopologySpec spec;
    spec.channels = 1;
    if (link_ns > 0) {
        spec.cxl_channels = 1;
        spec.cxl_link.round_trip_ns = link_ns;
    }
    topo::Topology topo(spec);
    topo::ShardDispatcher dispatcher(topo);
    EventQueue &events = topo.events();

    // All offloads target the measured tier's device: slot 0 locally,
    // the far channel's slot when a link is configured.
    const unsigned slot = link_ns > 0 ? 1u : 0u;
    const std::size_t window = 4;

    Rng rng(31);
    std::vector<std::uint8_t> payload(kRecordBytes);
    rng.fill(payload.data(), payload.size());
    std::uint8_t key[16];
    rng.fill(key, sizeof(key));

    std::size_t next = 0;
    std::size_t done = 0;
    std::vector<Tick> latencies;
    latencies.reserve(kOffloads);

    std::function<void()> submitNext = [&] {
        if (next >= kOffloads)
            return;
        const std::size_t i = next++;
        topo::Topology::Slot &dev = topo.slot(slot);

        compcpy::CompCpyParams params;
        params.size = kRecordBytes;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = 1 + i;
        std::memcpy(params.key, key, sizeof(key));
        params.iv[4] = static_cast<std::uint8_t>(i >> 8);
        params.iv[5] = static_cast<std::uint8_t>(i);
        params.sbuf = dev.driver.alloc(kRecordBytes);
        const std::size_t dbytes =
            compcpy::CompCpyEngine::destPages(params) * kPageSize;
        params.dbuf = dev.driver.alloc(dbytes);
        topo.store().write(params.sbuf, payload.data(),
                           payload.size());

        auto reap = [&, params, dbytes](
                        const CompletionRecord &record) {
            latencies.push_back(record.completed - record.submitted);
            ++done;
            topo.slot(slot).driver.release(params.sbuf, params.size);
            topo.slot(slot).driver.release(params.dbuf, dbytes);
            submitNext();
        };
        if (!dispatcher.submit(slot, Descriptor::single(params), 0,
                               reap))
            dispatcher.queue(slot).submitForce(
                Descriptor::single(params), 0, reap);
    };

    for (std::size_t i = 0; i < window && next < kOffloads; ++i)
        submitNext();
    events.run();
    const Tick elapsed = events.now();

    Row row;
    std::snprintf(row.name, sizeof(row.name), "%s", name);
    row.link_ns = link_ns;
    row.ops_per_sec = done == kOffloads
                          ? static_cast<double>(kOffloads) * 1e12 /
                                static_cast<double>(elapsed)
                          : 0;
    std::sort(latencies.begin(), latencies.end());
    row.p50_us =
        static_cast<double>(sortedPercentile(latencies, 0.50)) / 1e6;
    row.p99_us =
        static_cast<double>(sortedPercentile(latencies, 0.99)) / 1e6;
    row.speedup_vs_cpu = modeledSpeedup(link_ns);

    const compcpy::WorkQueueStats &qs =
        dispatcher.queue(slot).stats();
    row.polls_saved = qs.polls_saved;
    row.poll_bytes_saved = qs.poll_bytes_saved;
    row.withheld_completions = qs.withheld_completions;
    if (link_ns > 0)
        row.link_transfers =
            topo.cxlLink(1)->stats().transfers;
    return row;
}

} // namespace

int
main()
{
    bench::header("CXL.mem far-tier microbenchmark (ISSUE 10)",
                  "TLS-4K CompCpy on a CXL-attached SmartDIMM, "
                  "local vs 300/600/1500 ns");

    std::vector<Row> rows;
    std::printf("%-10s %8s %14s %9s %9s %9s %12s\n", "point",
                "link ns", "offloads/s", "p50(us)", "p99(us)",
                "vs CPU", "polls saved");
    const struct
    {
        const char *name;
        double link_ns;
    } points[] = {
        {"local", 0},
        {"cxl300", 300},
        {"cxl600", 600},
        {"cxl1500", 1500},
    };
    for (const auto &point : points) {
        Row row = runPoint(point.name, point.link_ns);
        std::printf("%-10s %8.0f %14.0f %9.2f %9.2f %8.2fx %12llu\n",
                    row.name, row.link_ns, row.ops_per_sec, row.p50_us,
                    row.p99_us, row.speedup_vs_cpu,
                    static_cast<unsigned long long>(row.polls_saved));
        rows.push_back(row);
    }
    std::vector<bench::JsonFields> json;
    for (const Row &r : rows)
        json.push_back({{"name", r.name},
                        {"link_ns", r.link_ns},
                        {"ops_per_sec", r.ops_per_sec},
                        {"p50_us", r.p50_us},
                        {"p99_us", r.p99_us},
                        {"speedup_vs_cpu", r.speedup_vs_cpu},
                        {"polls_saved", r.polls_saved},
                        {"poll_bytes_saved", r.poll_bytes_saved},
                        {"withheld_completions", r.withheld_completions},
                        {"link_transfers", r.link_transfers}});
    bench::writeBenchJson(
        "BENCH_cxl.json",
        {{"offloads", kOffloads}, {"record_bytes", kRecordBytes}}, json);

    std::printf(
        "\nPaper anchor: the CPU path pays the link round trip on\n"
        "every demand miss of the far-homed working set, while the\n"
        "near-data transform pays it only on its control path — the\n"
        "CXL tier must beat the CPU path at >= 600 ns and the\n"
        "advantage must grow with link latency. The withheld-response\n"
        "completion eliminates host polling: saved poll reads (and\n"
        "their MMIO bytes) are reported per point.\n");
    return 0;
}
