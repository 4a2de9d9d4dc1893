/**
 * @file
 * Fig. 10: Scratchpad occupancy over time for different LLC
 * provisionings (Intel CAT way-limiting). Occupancy stabilises at an
 * equilibrium where LLC writebacks self-recycle pages as fast as new
 * offloads allocate them; a more contended (smaller) LLC writes back
 * sooner, so the equilibrium sits lower.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"

using namespace sd;

namespace {

/** Run a CompCpy stream against a CAT-limited LLC and sample the
 *  scratchpad occupancy; natural evictions (not explicit USE flushes)
 *  do the recycling. */
void
runProvision(std::size_t llc_bytes, const char *label)
{
    topo::Topology rig(bench::deviceSpec(llc_bytes));
    Rng rng(7);
    constexpr std::size_t kMsg = 4096;
    constexpr int kOffloads = 1200;

    std::printf("\nLLC %-6s: offload -> scratchpad occupancy (KB)\n",
                label);

    std::vector<std::size_t> samples;
    std::uint64_t message_id = 1;
    for (int i = 0; i < kOffloads; ++i) {
        const Addr sbuf =
            (1ULL << 20) + static_cast<Addr>(i) * 2 * kPageSize * 3;
        const Addr dbuf = sbuf + kPageSize * 3;
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

        rig.slot(0).queue.run(params);
        // No explicit USE flush: recycling relies on the LLC's own
        // capacity evictions of the dirty destination lines, exactly
        // the Self-Recycle equilibrium of Sec. IV-B.
        if (i % 60 == 59)
            samples.push_back(rig.slot(0).device.scratchpad().occupancyBytes());
    }

    for (std::size_t i = 0; i < samples.size(); ++i)
        std::printf("  t=%3zu occupancy=%7.1f KB\n", (i + 1) * 60,
                    static_cast<double>(samples[i]) / 1024.0);

    const auto &sp = rig.slot(0).device.scratchpad().stats();
    std::printf("  equilibrium=%.1f KB peak=%.1f KB self_recycles=%llu "
                "force_recycles=%llu\n",
                static_cast<double>(samples.back()) / 1024.0,
                static_cast<double>(sp.peak_pages * kPageSize) / 1024.0,
                static_cast<unsigned long long>(sp.self_recycles),
                static_cast<unsigned long long>(sp.force_recycles));

    sd::trace::StatsRegistry registry;
    rig.registerStats(registry);
    const std::size_t equilibrium = samples.back();
    registry.add("occupancy", [&](sd::trace::StatsBlock &block) {
        block.scalar("equilibrium_bytes",
                     static_cast<double>(equilibrium));
        block.scalar("samples", static_cast<double>(samples.size()));
    });
    bench::writeStatsJson(std::string("fig10_") + label, registry);
}

} // namespace

int
main()
{
    bench::header("Figure 10",
                  "scratchpad occupancy equilibrium vs LLC "
                  "provisioning (CAT)");
    // The paper contends 50 MB / 25 MB / 10 MB LLC slices; the rig
    // scales the same ratios down (its CompCpy stream is a single
    // core's) — the equilibrium ordering is the result under test.
    runProvision(6ull << 20, "large");
    runProvision(3ull << 20, "medium");
    runProvision(1ull << 20, "small");

    std::printf("\nPaper shape: every provisioning reaches a stable\n"
                "equilibrium; smaller (more contended) LLCs stabilise\n"
                "at proportionally lower scratchpad occupancy, and\n"
                "Force-Recycle stays at (near) zero.\n");
    return 0;
}
