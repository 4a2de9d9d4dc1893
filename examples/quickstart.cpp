/**
 * @file
 * Quickstart: bring up a simulated system with SmartDIMMs behind the
 * memory controller(s), offload the encryption of one TLS record per
 * device with CompCpy, and verify the bytes that land in simulated
 * DRAM against a software AES-GCM reference.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart              # 1 channel x 1 DIMM
 *   SD_TOPOLOGY=2x2 ./build/examples/quickstart   # 2 channels x 2 DIMMs
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "compcpy/compcpy.h"
#include "crypto/aes_gcm.h"
#include "topo/topology.h"
#include "trace/trace.h"

using namespace sd;

int
main()
{
    std::printf("SmartDIMM quickstart\n====================\n\n");

    // 1. The simulated platform: N DDR4 channels x M SmartDIMM buffer
    //    devices each, fronted by a 32 MB LLC. The topology factory
    //    wires the address map, MMIO windows, drivers and engines;
    //    SD_TOPOLOGY=CxD (e.g. 2x2) scales it out.
    topo::Topology topo(topo::TopologySpec::fromEnv());
    std::printf("topology: %u channel(s) x %u DIMM(s)/channel\n\n",
                topo.channels(), topo.dimmsPerChannel());

    // Trace the run: every CompCpy opens a span; each pipeline stage
    // records cycle-stamped events into it.
    trace::tracer().enable();

    // 2. Per device: stage a 4 KB plaintext record and CompCpy it —
    //    the copy *is* the offload; the DSA encrypts inline as the
    //    data crosses that device's DDR channel.
    Rng rng(2024);
    bool all_ok = true;
    for (unsigned s = 0; s < topo.slotCount(); ++s) {
        topo::Topology::Slot &slot = topo.slot(s);
        compcpy::CompCpyEngine &compcpy = slot.engine;

        std::vector<std::uint8_t> plaintext(4096);
        rng.fill(plaintext.data(), plaintext.size());
        std::uint8_t key[16];
        rng.fill(key, sizeof(key));
        crypto::GcmIv iv{};
        rng.fill(iv.data(), iv.size());

        const Addr sbuf = slot.driver.alloc(4096);
        const Addr dbuf = slot.driver.alloc(8192); // room for the tag
        topo.memory().writeSync(sbuf, plaintext.data(),
                                plaintext.size());

        compcpy::CompCpyParams params;
        params.sbuf = sbuf;
        params.dbuf = dbuf;
        params.size = plaintext.size();
        params.ulp = smartdimm::UlpKind::kTlsEncrypt;
        params.message_id = 1;
        std::memcpy(params.key, key, sizeof(key));
        params.iv = iv;
        slot.queue.run(params);

        // 3. USE(dbuf): flush so the Scratchpad self-recycles into
        //    DRAM, then read the record (ciphertext || tag) back.
        compcpy.useSync(dbuf, 8192);
        const auto record =
            compcpy.readResult(dbuf, plaintext.size() + 16);

        // 4. Verify against the software reference.
        crypto::GcmContext reference(key, crypto::Aes::KeySize::k128);
        std::vector<std::uint8_t> expected(plaintext.size());
        const crypto::GcmTag tag = reference.encrypt(
            iv, plaintext.data(), plaintext.size(), expected.data());

        const bool cipher_ok = std::memcmp(record.data(),
                                           expected.data(),
                                           expected.size()) == 0;
        const bool tag_ok =
            std::memcmp(record.data() + expected.size(), tag.data(),
                        16) == 0;
        all_ok = all_ok && cipher_ok && tag_ok;

        const auto &arb = slot.device.stats();
        std::printf("ch%u.d%u: ciphertext %s, tag %s "
                    "(sbuf rdCAS %llu, recycles %llu, ALERT_N %llu)\n",
                    slot.channel, slot.dimm, cipher_ok ? "ok" : "BAD",
                    tag_ok ? "ok" : "BAD",
                    static_cast<unsigned long long>(arb.sbuf_reads),
                    static_cast<unsigned long long>(arb.dbuf_recycles),
                    static_cast<unsigned long long>(arb.alert_n));
    }

    // 5. Dump the trace: stats registry (per-device component names)
    //    + the span report. Every span should have seen every stage.
    trace::StatsRegistry registry;
    topo.registerStats(registry);
    trace::tracer().writeJsonFile("quickstart_trace.json", &registry);

    std::printf("\ntrace: %zu span(s), %zu events "
                "-> quickstart_trace.json\n",
                trace::tracer().spans().size(),
                trace::tracer().events().size());
    bool all_stages = true;
    for (auto stage :
         {trace::Stage::kFlush, trace::Stage::kRegister,
          trace::Stage::kCopy, trace::Stage::kTransform,
          trace::Stage::kStage, trace::Stage::kRecycle,
          trace::Stage::kUse}) {
        bool seen = true;
        for (std::uint32_t span = 1; span <= topo.slotCount(); ++span)
            seen = seen && trace::tracer().spanHasStage(span, stage);
        std::printf("  stage %-9s : %s\n", trace::stageName(stage),
                    seen ? "seen" : "MISSING");
        all_stages = all_stages && seen;
    }

    std::printf("\nsimulated time: %.2f us\n",
                static_cast<double>(topo.events().now()) / 1e6);
    return all_ok && all_stages ? 0 : 1;
}
