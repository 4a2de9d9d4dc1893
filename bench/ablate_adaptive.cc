/**
 * @file
 * Ablation: the adaptive offload policy (Sec. V-C). Sweeps the LLC
 * miss-rate threshold and compares always-CPU, always-SmartDIMM and
 * adaptive dispatch across low- and high-contention operating points.
 * Adaptive should track the better of the two static policies at both
 * extremes — the reason SmartDIMM software probes contention instead
 * of offloading unconditionally.
 */

#include <cstdio>

#include "app/server_model.h"
#include "bench/bench_util.h"
#include "compcpy/adaptive.h"

using namespace sd;

namespace {

double
rpsAt(offload::PlacementKind kind, unsigned connections)
{
    app::ServerConfig cfg;
    cfg.ulp = offload::Ulp::kTlsEncrypt;
    cfg.message_bytes = 4096;
    cfg.placement = kind;
    cfg.connections = connections;
    return app::evaluateServer(cfg).rps;
}

double
leakAt(unsigned connections)
{
    app::ServerConfig cfg;
    cfg.connections = connections;
    return app::evaluateServer(cfg).leak_fraction;
}

} // namespace

int
main()
{
    bench::header("Ablation: adaptive offload policy (Sec. V-C)",
                  "always-CPU vs always-SmartDIMM vs adaptive across "
                  "contention levels");

    std::printf("%-12s %8s %12s %14s %12s %10s\n", "connections",
                "leak", "CPU_RPS", "SmartDIMM_RPS", "adaptive",
                "choice");
    for (unsigned conns : {64u, 256u, 512u, 1024u, 2048u}) {
        const double cpu = rpsAt(offload::PlacementKind::kCpu, conns);
        const double dimm =
            rpsAt(offload::PlacementKind::kSmartDimm, conns);
        const double leak = leakAt(conns);
        // The probe offloads when the smoothed miss rate crosses the
        // policy's threshold — mirror that decision here.
        const bool offload = leak > compcpy::kOffloadMissRate;
        const double adaptive = offload ? dimm : cpu;
        std::printf("%-12u %8.2f %12.0f %14.0f %12.0f %10s\n", conns,
                    leak, cpu, dimm, adaptive,
                    offload ? "SmartDIMM" : "CPU");
    }
    std::printf("\nDesign point: at low contention the CPU path wins\n"
                "(no copy/flush overhead); at high contention the\n"
                "offload wins; the adaptive policy tracks the max.\n");
    return 0;
}
