/**
 * @file
 * Substrate throughput microbenchmarks (google-benchmark): the
 * functional AES-GCM and Deflate implementations, the incremental
 * out-of-order GCM, and the end-to-end device-level CompCpy. These
 * are simulator-implementation numbers (the placement cost model
 * carries the calibrated hardware rates), tracked to keep the repo's
 * own performance honest.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "crypto/aes_gcm.h"
#include "crypto/tls_record.h"

using namespace sd;
using namespace sd::crypto;

namespace {

void
BM_AesBlock(benchmark::State &state)
{
    Rng rng(1);
    std::uint8_t key[16];
    rng.fill(key, 16);
    Aes aes(key, Aes::KeySize::k128);
    std::uint8_t block[16] = {};
    for (auto _ : state) {
        aes.encryptBlock(block, block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesBlock);

void
BM_GcmEncrypt4K(benchmark::State &state)
{
    Rng rng(2);
    std::uint8_t key[16];
    rng.fill(key, 16);
    GcmContext ctx(key, Aes::KeySize::k128);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::vector<std::uint8_t> cipher(plain.size());
    GcmIv iv{};
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctx.encrypt(
            iv, plain.data(), plain.size(), cipher.data()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_GcmEncrypt4K);

void
BM_IncrementalGcm4K(benchmark::State &state)
{
    Rng rng(3);
    std::uint8_t key[16];
    rng.fill(key, 16);
    GcmContext ctx(key, Aes::KeySize::k128);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::vector<std::uint8_t> cipher(plain.size());
    GcmIv iv{};
    for (auto _ : state) {
        IncrementalGcm inc(ctx, iv, plain.size());
        for (std::size_t line = 0; line < inc.lineCount(); ++line)
            inc.processLine(line, plain.data() + line * 64,
                            cipher.data() + line * 64);
        benchmark::DoNotOptimize(inc.finalTag());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_IncrementalGcm4K);

void
BM_TlsRecordProtect(benchmark::State &state)
{
    Rng rng(4);
    std::uint8_t key[16];
    rng.fill(key, 16);
    GcmIv iv{};
    TlsSession session(key, iv);
    std::vector<std::uint8_t> msg(4096);
    rng.fill(msg.data(), msg.size());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            session.protect(msg.data(), msg.size()));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_TlsRecordProtect);

void
BM_DeviceCompCpy4K(benchmark::State &state)
{
    topo::Topology rig(bench::deviceSpec());
    Rng rng(5);
    std::vector<std::uint8_t> data(4096);
    rng.fill(data.data(), data.size());
    std::uint64_t i = 0;
    for (auto _ : state) {
        const Addr sbuf =
            (1ULL << 20) + (i % 1024) * 8 * kPageSize;
        const Addr dbuf = sbuf + 4 * kPageSize;
        rig.memory().writeSync(sbuf, data.data(), data.size());
        compcpy::CompCpyParams params;
        params.sbuf = sbuf;
        params.dbuf = dbuf;
        params.size = 4096;
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = ++i;
        rng.fill(params.key, sizeof(params.key));
        rig.slot(0).engine.run(params);
        rig.slot(0).engine.useSync(dbuf, 4096 + kPageSize);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_DeviceCompCpy4K);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Machine-readable artefact for the active kernel tier, next to
    // the google-benchmark table (satellite of the kernel layer).
    Rng rng(6);
    std::uint8_t key[16];
    rng.fill(key, 16);
    Aes aes(key, Aes::KeySize::k128);
    GcmContext ctx(key, Aes::KeySize::k128);
    std::vector<std::uint8_t> plain(4096);
    rng.fill(plain.data(), plain.size());
    std::vector<std::uint8_t> cipher(plain.size());
    GcmIv iv{};

    std::vector<bench::KernelBenchRow> rows;
    std::uint8_t block[16] = {};
    rows.push_back(bench::timeKernelOp(
        "aes_block", 16, 16, [&] { aes.encryptBlock(block, block); }));
    rows.push_back(bench::timeKernelOp("gcm_encrypt_4k", 4096, 16, [&] {
        benchmark::DoNotOptimize(
            ctx.encrypt(iv, plain.data(), plain.size(), cipher.data()));
    }));
    rows.push_back(
        bench::timeKernelOp("incremental_gcm_4k", 4096, 16, [&] {
            IncrementalGcm inc(ctx, iv, plain.size());
            for (std::size_t line = 0; line < inc.lineCount(); ++line)
                inc.processLine(line, plain.data() + line * 64,
                                cipher.data() + line * 64);
            benchmark::DoNotOptimize(inc.finalTag());
        }));
    bench::writeKernelBenchJson("BENCH_crypto.json", rows);
    return 0;
}
