/**
 * @file
 * Topology scale-out microbenchmark: aggregate CompCpy throughput as
 * the platform grows from one SmartDIMM to multiple channels x
 * multiple DIMMs per channel.
 *
 * A fixed batch of TLS-4K records is driven closed-loop through the
 * ShardDispatcher: requests round-robin over a pool of persistent
 * flows, each flow hash-affinitizes to its home DIMM, and every
 * reaped completion submits the next record, holding a small window
 * in flight per slot. Because each slot is an independent device
 * behind its own (share of a) channel, the same total work finishes
 * roughly slots-times faster — the whole point of scaling the
 * topology out.
 *
 * Reports aggregate offloads/sec and p50/p99 submit->completion
 * latency for 1x1, 2x1, 2x2 and 4x2, and writes BENCH_topology.json.
 *
 * Paper anchor: SmartDIMM's throughput scales with the number of
 * devices because each DIMM owns its own DSA pipeline and channel
 * share (Sec. VI) — 4x2 must sustain >= 3x the 1x1 aggregate
 * offloads/sec on this workload.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "topo/dispatcher.h"

using namespace sd;
using compcpy::CompletionRecord;
using compcpy::Descriptor;

namespace {

constexpr std::size_t kOffloads = 256;
constexpr std::size_t kRecordBytes = 4096; // TLS-4K

struct Row
{
    char name[8] = "";
    unsigned channels = 1;
    unsigned dimms = 1;
    double ops_per_sec = 0;
    double p50_us = 0;
    double p99_us = 0;
    double speedup = 1.0;
    std::uint64_t shed_to_sibling = 0;
    std::uint64_t shed_to_cpu = 0;
};

Row
runShape(unsigned channels, unsigned dimms)
{
    topo::TopologySpec spec;
    spec.channels = channels;
    spec.dimms_per_channel = dimms;
    topo::Topology topo(spec);
    topo::ShardDispatcher dispatcher(topo);
    EventQueue &events = topo.events();

    const unsigned slots = topo.slotCount();
    const std::size_t flows = 8 * slots;
    const std::size_t window = 4 * slots; // in flight, ~4 per slot

    Rng rng(29);
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
        const std::uint64_t flow = i % flows;

        unsigned slot = dispatcher.place(flow);
        const bool forced = slot == topo::ShardDispatcher::kCpuPath;
        if (forced) // bench measures the devices: never drop to CPU
            slot = dispatcher.homeSlot(flow);
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

        auto reap = [&, params, dbytes, slot](
                        const CompletionRecord &record) {
            latencies.push_back(record.completed - record.submitted);
            ++done;
            topo.slot(slot).driver.release(params.sbuf, params.size);
            topo.slot(slot).driver.release(params.dbuf, dbytes);
            submitNext();
        };
        if (!dispatcher.submit(slot, Descriptor::single(params), 0,
                               reap))
            topo.slot(slot).queue.submitForce(
                Descriptor::single(params), 0, reap);
    };

    for (std::size_t i = 0; i < window && next < kOffloads; ++i)
        submitNext();
    events.run();
    const Tick elapsed = events.now();

    Row row;
    std::snprintf(row.name, sizeof(row.name), "%ux%u", channels,
                  dimms);
    row.channels = channels;
    row.dimms = dimms;
    row.ops_per_sec = done == kOffloads
                          ? static_cast<double>(kOffloads) * 1e12 /
                                static_cast<double>(elapsed)
                          : 0;
    std::sort(latencies.begin(), latencies.end());
    row.p50_us =
        static_cast<double>(sortedPercentile(latencies, 0.50)) / 1e6;
    row.p99_us =
        static_cast<double>(sortedPercentile(latencies, 0.99)) / 1e6;
    row.shed_to_sibling = dispatcher.stats().shed_to_sibling;
    row.shed_to_cpu = dispatcher.stats().shed_to_cpu;
    return row;
}

} // namespace

int
main()
{
    bench::header("Topology scale-out microbenchmark (Sec. VI)",
                  "aggregate TLS-4K CompCpy throughput, 1x1 -> 4x2");

    std::vector<Row> rows;
    std::printf("%-6s %6s %14s %10s %10s %9s %6s\n", "shape", "slots",
                "offloads/s", "p50(us)", "p99(us)", "speedup", "shed");
    for (const auto &[channels, dimms] :
         {std::pair<unsigned, unsigned>{1, 1}, {2, 1}, {2, 2}, {4, 2}}) {
        Row row = runShape(channels, dimms);
        if (!rows.empty())
            row.speedup = row.ops_per_sec / rows[0].ops_per_sec;
        std::printf("%-6s %6u %14.0f %10.2f %10.2f %9.2f %6llu\n",
                    row.name, row.channels * row.dimms,
                    row.ops_per_sec, row.p50_us, row.p99_us,
                    row.speedup,
                    static_cast<unsigned long long>(
                        row.shed_to_sibling + row.shed_to_cpu));
        rows.push_back(row);
    }
    std::vector<bench::JsonFields> json;
    for (const Row &r : rows)
        json.push_back({{"name", r.name},
                        {"channels", r.channels},
                        {"dimms_per_channel", r.dimms},
                        {"ops_per_sec", r.ops_per_sec},
                        {"p50_us", r.p50_us},
                        {"p99_us", r.p99_us},
                        {"speedup_vs_1x1", r.speedup},
                        {"shed_to_sibling", r.shed_to_sibling},
                        {"shed_to_cpu", r.shed_to_cpu}});
    bench::writeBenchJson(
        "BENCH_topology.json",
        {{"offloads", kOffloads}, {"record_bytes", kRecordBytes}}, json);

    std::printf("\nPaper anchor: every DIMM owns an independent DSA\n"
                "pipeline behind its own channel share, so aggregate\n"
                "throughput scales with device count — 4x2 must\n"
                "sustain >= 3x the 1x1 offloads/sec.\n");
    return 0;
}
