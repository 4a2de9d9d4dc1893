/**
 * @file
 * Ablation: ordered vs unordered CompCpy (Alg. 2 lines 24-30). The
 * ordered mode fences between 64-byte copies so streaming DSAs
 * (Deflate) see lines in order; the fences serialise the copy loop
 * and cost wall-clock time on the device model. Size-preserving DSAs
 * (TLS) don't need them — the stride-4 H powers absorb reordering.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"

using namespace sd;

namespace {

Tick
runCopy(bool ordered)
{
    topo::Topology rig(bench::deviceSpec());
    Rng rng(21);
    constexpr std::size_t kMsg = 4096;
    constexpr int kCalls = 24;

    Tick total = 0;
    for (int i = 0; i < kCalls; ++i) {
        const Addr sbuf =
            (1ULL << 20) + static_cast<Addr>(i) * 8 * kPageSize;
        const Addr dbuf = sbuf + 4 * kPageSize;
        std::vector<std::uint8_t> data(kMsg);
        rng.fill(data.data(), data.size());
        rig.memory().writeSync(sbuf, data.data(), data.size());

        compcpy::CompCpyParams params;
        params.sbuf = sbuf;
        params.dbuf = dbuf;
        params.size = kMsg;
        params.ordered = ordered;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = 500 + static_cast<std::uint64_t>(i);
        rng.fill(params.key, sizeof(params.key));
        rng.fill(params.iv.data(), params.iv.size());

        const Tick start = rig.events().now();
        rig.slot(0).engine.run(params);
        total += rig.events().now() - start;
        rig.slot(0).engine.useSync(dbuf, kMsg + kPageSize);
    }
    return total / kCalls;
}

} // namespace

int
main()
{
    bench::header("Ablation: ordered vs unordered CompCpy (Alg. 2)",
                  "per-call wall clock on the device model");

    const Tick unordered = runCopy(false);
    const Tick ordered = runCopy(true);
    std::printf("unordered CompCpy (TLS-style)     : %8.2f us\n",
                static_cast<double>(unordered) / 1e6);
    std::printf("ordered CompCpy (Deflate-style)   : %8.2f us\n",
                static_cast<double>(ordered) / 1e6);
    std::printf("fence overhead                    : %8.1f%%\n",
                (static_cast<double>(ordered) /
                     static_cast<double>(unordered) -
                 1.0) * 100.0);
    std::printf("\nDesign point: only non-size-preserving streaming\n"
                "ULPs pay the ordering fences; AES-GCM's positional\n"
                "GHASH makes the TLS DSA order-oblivious.\n");
    return 0;
}
