/**
 * @file
 * Compression offload: the Sec. V-B / Fig. 12 scenario. A web
 * response is compressed page-by-page through the SmartDIMM Deflate
 * DSA (ordered CompCpy with fences), the framed output is decoded
 * with the software inflater, and the ratio is compared against the
 * software encoder with a full 32 KB window.
 *
 * Run: ./build/examples/compression_offload
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "compcpy/compcpy.h"
#include "compress/deflate.h"
#include "smartdimm/deflate_dsa.h"
#include "topo/topology.h"

using namespace sd;

namespace {

/** Synthesise a repetitive "web page" response body. */
std::vector<std::uint8_t>
makeResponse(std::size_t len)
{
    static const char *rows[] = {
        "<tr><td class=\"sku\">AXD-4711</td><td>SmartDIMM DDR4 "
        "module</td><td>near-memory ULP offload</td></tr>\n",
        "<tr><td class=\"sku\">CCX-0042</td><td>CompCpy runtime</td>"
        "<td>inline acceleration API</td></tr>\n",
    };
    std::vector<std::uint8_t> out;
    Rng rng(11);
    while (out.size() < len) {
        const char *row = rows[rng.below(2)];
        out.insert(out.end(), row, row + std::strlen(row));
    }
    out.resize(len);
    return out;
}

} // namespace

int
main()
{
    std::printf("Deflate offload through SmartDIMM\n"
                "=================================\n\n");

    topo::TopologySpec spec;
    spec.llc.size_bytes = 8ull << 20;
    topo::Topology topo(spec);
    cache::MemorySystem &memory = topo.memory();
    compcpy::Driver &driver = topo.slot(0u).driver;
    compcpy::CompCpyEngine &compcpy = topo.slot(0u).engine;

    // A 24 KB response compressed at (just under) page granularity,
    // each page an independent CompCpy per Sec. V-C.
    const auto response = makeResponse(24 * 1024);
    const std::size_t chunk = smartdimm::kDeflateMaxPayload;

    std::vector<std::uint8_t> decoded;
    std::size_t compressed_total = 0;
    unsigned offloads = 0;

    for (std::size_t off = 0; off < response.size(); off += chunk) {
        const std::size_t take =
            std::min(chunk, response.size() - off);

        const Addr sbuf = driver.alloc(kPageSize);
        const Addr dbuf = driver.alloc(kPageSize);
        std::vector<std::uint8_t> staged(kPageSize, 0);
        std::memcpy(staged.data(), response.data() + off, take);
        memory.writeSync(sbuf, staged.data(), staged.size());

        compcpy::CompCpyParams params;
        params.sbuf = sbuf;
        params.dbuf = dbuf;
        params.size = take;
        params.ordered = true; // streaming DSA needs in-order lines
        params.ulp = smartdimm::UlpKind::kDeflate;
        compcpy.run(params);
        compcpy.useSync(dbuf, kPageSize);

        const auto framed = compcpy.readResult(dbuf, kPageSize);
        const std::size_t stream_len = framed[0] | (framed[1] << 8);
        compressed_total += 2 + stream_len;
        ++offloads;

        const auto page =
            compress::deflateDecompress(framed.data() + 2, stream_len);
        decoded.insert(decoded.end(), page.begin(), page.end());

        driver.release(sbuf, kPageSize);
        driver.release(dbuf, kPageSize);
    }

    const bool ok = decoded == response;
    std::printf("pages offloaded            : %u\n", offloads);
    std::printf("round-trip matches original: %s\n", ok ? "yes" : "NO");
    std::printf("original size              : %zu bytes\n",
                response.size());
    std::printf("DSA compressed size        : %zu bytes (%.2fx)\n",
                compressed_total,
                static_cast<double>(response.size()) /
                    static_cast<double>(compressed_total));

    const auto sw = compress::deflateCompress(
        response.data(), response.size(),
        compress::DeflateStrategy::kDynamic);
    std::printf("software (32 KB window)    : %zu bytes (%.2fx)\n",
                sw.bytes.size(), sw.ratio(response.size()));
    std::printf("\nThe DSA trades some ratio (4 KB history, 8-byte\n"
                "window, best-effort banking) for deterministic\n"
                "line-rate latency — Sec. V-B's design point.\n");
    return ok ? 0 : 1;
}
