/**
 * @file
 * Adaptive HTTPS serving: the scenario of Fig. 1/Fig. 8. An
 * OpenSSL-engine-like adaptive dispatcher protects TLS records on the
 * CPU while the LLC is quiet and switches to SmartDIMM CompCpy when
 * the miss-rate probe crosses the contention threshold. Every record,
 * whichever path produced it, decrypts correctly at the "client".
 *
 * Run: ./build/examples/secure_web_server
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "app/antagonist.h"
#include "common/random.h"
#include "compcpy/offload_engine.h"
#include "topo/topology.h"

using namespace sd;

int
main()
{
    std::printf("Adaptive secure web server\n"
                "==========================\n\n");

    topo::TopologySpec spec;
    spec.llc.size_bytes = 1ull << 20; // small LLC so contention is
                                      // easy to provoke in a demo
    topo::Topology topo(spec);
    cache::MemorySystem &memory = topo.memory();

    Rng rng(7);
    std::uint8_t key[16];
    rng.fill(key, sizeof(key));
    crypto::GcmIv static_iv{};
    rng.fill(static_iv.data(), static_iv.size());

    compcpy::AdaptiveTlsEngine engine(topo.slot(0u).queue, key, static_iv);

    // A client-side session with the same keys verifies every record.
    crypto::GcmContext client(key, crypto::Aes::KeySize::k128);

    // The co-running antagonist we toggle to create/relieve pressure.
    app::McfLikeAntagonist antagonist(8ull << 20, 99);

    std::vector<std::uint8_t> page(4096);
    std::uint64_t verified = 0;

    std::printf("%-8s %-12s %-10s %-10s %-8s\n", "phase", "pressure",
                "missEWMA", "path", "records");
    for (int phase = 0; phase < 4; ++phase) {
        const bool contended = phase % 2 == 1;
        std::uint64_t phase_cpu = 0;
        std::uint64_t phase_dimm = 0;

        for (int req = 0; req < 24; ++req) {
            // Background pressure between requests.
            if (contended)
                antagonist.walk(memory.llc(), 20000);
            engine.probe().sample();

            rng.fill(page.data(), page.size());
            const auto record =
                engine.protectRecord(page.data(), page.size());
            (record.on == compcpy::ProcessedOn::kCpu ? phase_cpu
                                                     : phase_dimm)++;

            // Client-side verification.
            const std::uint64_t seq =
                engine.cpuRecords() + engine.offloadedRecords() - 1;
            crypto::GcmTag tag;
            std::memcpy(tag.data(),
                        record.body.data() + page.size(), 16);
            std::vector<std::uint8_t> plain(page.size());
            if (client.decrypt(crypto::tlsNonce(static_iv, seq),
                               record.body.data(), page.size(),
                               tag, plain.data()) &&
                plain == page)
                ++verified;
        }

        std::printf("%-8d %-12s %-10.2f CPU=%-6llu SmartDIMM=%llu\n",
                    phase, contended ? "high" : "low",
                    engine.probe().missRateEwma(),
                    static_cast<unsigned long long>(phase_cpu),
                    static_cast<unsigned long long>(phase_dimm));
    }

    std::printf("\nrecords verified end-to-end: %llu / 96\n",
                static_cast<unsigned long long>(verified));
    std::printf("CPU-path records: %llu, SmartDIMM records: %llu\n",
                static_cast<unsigned long long>(engine.cpuRecords()),
                static_cast<unsigned long long>(
                    engine.offloadedRecords()));
    std::printf("\nThe dispatcher onloads at low contention and\n"
                "offloads at high contention — Sec. V-C's policy.\n");
    return verified == 96 ? 0 : 1;
}
