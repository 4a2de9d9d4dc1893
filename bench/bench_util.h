/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: row
 * printing, JSON artefacts and the spec of the standard one-channel
 * system the device-level benches build as a topo::Topology.
 */

#ifndef SD_BENCH_BENCH_UTIL_H
#define SD_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "kernels/dispatch.h"
#include "topo/topology.h"
#include "trace/trace.h"

namespace sd::bench {

/** Print a bench header with the paper artefact it regenerates. */
inline void
header(const char *artifact, const char *description)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", artifact, description);
    std::printf("==============================================================\n");
}

/**
 * Spec of the one-channel SmartDIMM system the device-level benches
 * run on: a 1x1 Topology with an LLC of @p llc_bytes and @p llc_ways
 * ways, all of them open to the CPU.
 */
inline topo::TopologySpec
deviceSpec(std::size_t llc_bytes = 32ull << 20, unsigned llc_ways = 16)
{
    topo::TopologySpec spec;
    spec.llc.size_bytes = llc_bytes;
    spec.llc.ways = llc_ways;
    spec.llc.cpu_ways = llc_ways;
    return spec;
}

/**
 * Dump @p registry as `<name>_stats.json` next to the bench's normal
 * output. Prints a one-line confirmation so runs show the artefact.
 */
inline void
writeStatsJson(const std::string &name,
               const trace::StatsRegistry &registry)
{
    const std::string path = name + "_stats.json";
    std::ofstream os(path);
    if (!os) {
        std::printf("could not write %s\n", path.c_str());
        return;
    }
    registry.dumpJson(os);
    std::printf("wrote %s\n", path.c_str());
}

/**
 * Dump the global tracer's span report (plus @p registry when given)
 * as `<name>_spans.json`. No-op when the tracer never recorded.
 */
inline void
writeSpansJson(const std::string &name,
               const trace::StatsRegistry *registry = nullptr)
{
    const auto &tr = trace::tracer();
    if (tr.spans().empty())
        return;
    const std::string path = name + "_spans.json";
    if (tr.writeJsonFile(path, registry))
        std::printf("wrote %s (%zu spans, %zu events)\n", path.c_str(),
                    tr.spans().size(), tr.events().size());
}

/** One self-timed kernel measurement for the BENCH_*.json artefacts. */
struct KernelBenchRow
{
    std::string name;     ///< operation, e.g. "gcm_encrypt_4k"
    std::size_t op_bytes; ///< payload bytes per op
    double ns_per_op = 0; ///< wall-clock ns per op
    double ns_per_block = 0; ///< ns per 16 B AES block (or per op unit)
    double bytes_per_sec = 0;
};

/**
 * Time @p op (a void() callable processing @p op_bytes per call) by
 * wall clock: warm up, then run until ~50 ms has elapsed. Returns a
 * filled row. Deliberately simple — these numbers feed the BENCH_*.json
 * artefacts for tier comparisons, not the paper's simulated results.
 */
template <typename Fn>
KernelBenchRow
timeKernelOp(const std::string &name, std::size_t op_bytes,
             std::size_t block_bytes, Fn &&op)
{
    using Clock = std::chrono::steady_clock;
    for (int i = 0; i < 3; ++i)
        op();
    std::size_t iters = 0;
    const auto start = Clock::now();
    auto now = start;
    do {
        op();
        ++iters;
        if ((iters & 0xf) == 0 || iters < 16)
            now = Clock::now();
    } while (now - start < std::chrono::milliseconds(50));
    const double total_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count();
    KernelBenchRow row;
    row.name = name;
    row.op_bytes = op_bytes;
    row.ns_per_op = total_ns / static_cast<double>(iters);
    const double blocks_per_op =
        static_cast<double>(op_bytes) / static_cast<double>(block_bytes);
    row.ns_per_block =
        blocks_per_op > 0 ? row.ns_per_op / blocks_per_op : row.ns_per_op;
    row.bytes_per_sec = static_cast<double>(op_bytes) * 1e9 / row.ns_per_op;
    return row;
}

/**
 * One `"key": value` pair of a BENCH_*.json artefact. The value is
 * rendered with default std::ostream formatting; strings are quoted.
 */
struct JsonField
{
    template <typename T>
    JsonField(std::string k, const T &v) : key(std::move(k))
    {
        std::ostringstream os;
        if constexpr (std::is_convertible_v<const T &, std::string_view>)
            os << '"' << v << '"';
        else
            os << v;
        value = os.str();
    }

    std::string key;
    std::string value;
};

using JsonFields = std::vector<JsonField>;

/**
 * Write @p path as the BENCH_*.json layout every micro bench shares:
 * the @p header fields in order, then a "results" array holding one
 * single-line object per row, fields in order.
 */
inline void
writeBenchJson(const std::string &path, const JsonFields &header,
               const std::vector<JsonFields> &rows)
{
    std::ofstream os(path);
    if (!os) {
        std::printf("could not write %s\n", path.c_str());
        return;
    }
    os << "{\n";
    for (const JsonField &f : header)
        os << "  \"" << f.key << "\": " << f.value << ",\n";
    os << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        os << "    {";
        for (std::size_t j = 0; j < rows[i].size(); ++j)
            os << (j ? ", \"" : "\"") << rows[i][j].key
               << "\": " << rows[i][j].value;
        os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

/**
 * Write the kernel measurement rows as @p path (BENCH_crypto.json /
 * BENCH_deflate.json), tagged with the active kernel tier so CI can
 * archive one artefact per forced tier.
 */
inline void
writeKernelBenchJson(const std::string &path,
                     const std::vector<KernelBenchRow> &rows)
{
    std::vector<JsonFields> json;
    for (const KernelBenchRow &r : rows)
        json.push_back({{"name", r.name},
                        {"op_bytes", r.op_bytes},
                        {"ns_per_op", r.ns_per_op},
                        {"ns_per_block", r.ns_per_block},
                        {"bytes_per_sec", r.bytes_per_sec}});
    writeBenchJson(path,
                   {{"kernel", kernels::tierName(kernels::activeTier())}},
                   json);
}

} // namespace sd::bench

#endif // SD_BENCH_BENCH_UTIL_H
