/**
 * @file
 * Ablation: hardware Deflate pipeline design choices (Sec. V-B) —
 * parallelisation-window width and the best-effort bank-conflict
 * policy vs compression ratio and pipeline throughput, against the
 * software encoder's ratio as the upper bound. A kernel
 * micro-benchmark: it sweeps compress::hwDeflateCompress directly.
 * The simulated Deflate DSA always runs the default pipeline (window
 * 8, best-effort banking) at kDsaLineLatency per line.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "compress/deflate.h"
#include "compress/hw_deflate.h"

using namespace sd;
using namespace sd::compress;

namespace {

std::vector<std::uint8_t>
webCorpus(std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    static const char *snippets[] = {
        "<div class=\"row\"><span>SmartDIMM near-memory ULP</span></div>",
        "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n",
        "function handler(req, res) { res.end(render(req.url)); }",
        "Lorem ipsum dolor sit amet, consectetur adipiscing elit. ",
    };
    std::vector<std::uint8_t> out;
    while (out.size() < len) {
        const char *p = snippets[rng.below(4)];
        out.insert(out.end(), p, p + std::strlen(p));
        if (rng.chance(0.05))
            out.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    out.resize(len);
    return out;
}

void
printDesignSweep()
{
    std::printf("=============================================================="
                "\nAblation: Deflate DSA window / bank policy (Sec. V-B)\n"
                "=============================================================="
                "\n");
    const auto corpus = webCorpus(64 * 1024, 11);

    const auto sw = deflateCompress(corpus.data(), corpus.size(),
                                    DeflateStrategy::kDynamic);
    std::printf("software zlib-class ratio: %.2fx (upper bound)\n\n",
                sw.ratio(corpus.size()));

    std::printf("%-8s %-14s %10s %12s %14s\n", "window", "bank_policy",
                "ratio", "steps", "conflicts");
    for (std::size_t window : {1ul, 2ul, 4ul, 8ul, 16ul}) {
        for (bool drop : {true, false}) {
            HwDeflateConfig cfg;
            cfg.parallel_window = window;
            cfg.drop_on_conflict = drop;
            HwDeflateStats stats;
            const auto bytes = hwDeflateCompress(
                corpus.data(), corpus.size(), cfg, &stats);
            std::printf("%-8zu %-14s %9.2fx %12llu %14llu\n", window,
                        drop ? "best-effort" : "ideal",
                        static_cast<double>(corpus.size()) /
                            static_cast<double>(bytes.size()),
                        static_cast<unsigned long long>(stats.steps),
                        static_cast<unsigned long long>(
                            stats.bank_conflicts));
        }
    }
    std::printf("\nPaper anchor: wider windows raise throughput with\n"
                "marginal ratio change; best-effort conflict dropping\n"
                "slightly reduces ratio but keeps latency\n"
                "deterministic.\n\n");
}

void
BM_HwDeflate4K(benchmark::State &state)
{
    const auto corpus = webCorpus(4096, 12);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            hwDeflateCompress(corpus.data(), corpus.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_HwDeflate4K);

void
BM_SoftwareDeflate4K(benchmark::State &state)
{
    const auto corpus = webCorpus(4096, 13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(deflateCompress(
            corpus.data(), corpus.size(), DeflateStrategy::kDynamic));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_SoftwareDeflate4K);

} // namespace

int
main(int argc, char **argv)
{
    printDesignSweep();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
