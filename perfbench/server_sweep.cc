/**
 * @file
 * Workload server_sweep: the paper's headline end-to-end numbers from
 * the analytic server model. app::evaluateServer runs over placements
 * {CPU, SmartNIC, QuickAssist, SmartDIMM, CXL.mem} x {TLS, Deflate} x
 * {4, 16, 64 KB}, plus the Table I co-run points (TLS-4K with ten
 * mcf-like co-runners). Host time goes to the LLC substrate
 * (app::measureContention) and the cost model; no DDR events run.
 *
 * Each ratio is printed beside the paper's measured value. The cost
 * model's constants were calibrated against the Fig. 11/12 baselines,
 * so paper_err_pct covers those four ratios and the Table I slowdowns
 * are reported apart as held-out data (paper_err_pct.heldout).
 *
 * The sweep's inputs are fixed configurations; the seed selects
 * nothing here (the model's contention probe has its own fixed seed).
 */

#include <cmath>
#include <cstdio>

#include "app/contention_model.h"
#include "app/server_model.h"
#include "bench.h"

namespace perfbench {

namespace {

using sd::offload::PlacementKind;
using sd::offload::Ulp;

constexpr std::size_t kSizes[] = {4096, 16384, 65536};
constexpr int kSetupSamples = 9;
constexpr int kSetupBatch = 1024;
constexpr PlacementKind kCorunPlacements[] = {
    PlacementKind::kCpu, PlacementKind::kSmartNic,
    PlacementKind::kQuickAssist, PlacementKind::kSmartDimm};

const char *
placementKey(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::kCpu:
        return "cpu";
      case PlacementKind::kSmartNic:
        return "smartnic";
      case PlacementKind::kQuickAssist:
        return "qat";
      case PlacementKind::kSmartDimm:
        return "smartdimm";
      case PlacementKind::kCxlMem:
        return "cxlmem";
    }
    return "?";
}

/** A simulated value beside the paper's measured one. */
struct Anchor
{
    std::string name;
    double paper;
    double sim;
    bool heldout;
};

struct Sweep
{
    std::vector<sd::app::ServerConfig> configs;
    std::size_t solo_points = 0; ///< configs before the co-run points
};

Sweep
buildSweep()
{
    Sweep sweep;
    for (Ulp ulp : {Ulp::kTlsEncrypt, Ulp::kDeflate})
        for (std::size_t bytes : kSizes)
            for (PlacementKind kind : sd::offload::kAllPlacementKinds) {
                sd::app::ServerConfig cfg;
                cfg.ulp = ulp;
                cfg.message_bytes = bytes;
                cfg.placement = kind;
                sweep.configs.push_back(cfg);
            }
    sweep.solo_points = sweep.configs.size();
    for (PlacementKind kind : kCorunPlacements) {
        sd::app::ServerConfig cfg;
        cfg.placement = kind;
        cfg.antagonist_mb = 1800;      // mcf-class footprint
        cfg.antagonist_instances = 10; // one per spare core
        sweep.configs.push_back(cfg);
    }
    return sweep;
}

/** Index of the solo point (ulp, bytes, kind) in buildSweep() order. */
std::size_t
soloIndex(Ulp ulp, std::size_t bytes, PlacementKind kind)
{
    std::size_t u = ulp == Ulp::kTlsEncrypt ? 0 : 1;
    std::size_t b = bytes == 4096 ? 0 : bytes == 16384 ? 1 : 2;
    std::size_t n = std::size(sd::offload::kAllPlacementKinds);
    return (u * std::size(kSizes) + b) * n + static_cast<std::size_t>(kind);
}

std::string
sizeKey(std::size_t bytes)
{
    return std::to_string(bytes / 1024) + "k";
}

class ServerSweep : public Workload
{
  public:
    PassResult
    run(HostSpans &spans) override
    {
        PassResult res;
        // evaluateServer has no set-up phase of its own, so set-up here
        // is input staging: the sweep's configurations, each carrying
        // its own CostModel. One build takes microseconds, so each
        // sample times a batch of builds (about 2 ms); the pass keeps
        // the median sample.
        Sweep sweep;
        std::vector<double> setup;
        for (int sample = 0; sample < kSetupSamples; ++sample) {
            HostSpans::Scope s(spans, "build_sweep");
            const auto t_setup = Clock::now();
            for (int b = 0; b < kSetupBatch; ++b)
                sweep = buildSweep();
            setup.push_back(secondsSince(t_setup) / kSetupBatch);
        }
        res.setup_s = median(setup);

        // One slice per evaluated point.
        std::vector<sd::app::ServerResult> results;
        for (const auto &cfg : sweep.configs) {
            HostSpans::Scope s(spans, "evaluate_server");
            const auto t_point = Clock::now();
            results.push_back(sd::app::evaluateServer(cfg));
            res.slices.push_back(secondsSince(t_point));
            res.wall_s += res.slices.back();
        }

        HostSpans::Scope s(spans, "verify");
        verify(sweep, results, res);
        return res;
    }

    void
    replayKernels(std::map<std::string, double> &layer,
                  HostSpans &spans) override
    {
        // evaluateServer's LLC probe, replayed on the same workloads
        // (the same derivation server_model.cc uses) to time it alone.
        const Sweep sweep = buildSweep();
        double miss = 0;
        const auto t0 = Clock::now();
        for (const auto &cfg : sweep.configs) {
            HostSpans::Scope s(spans, "measure_contention");
            sd::app::ContentionWorkload w;
            w.connections = cfg.connections;
            w.message_bytes = cfg.message_bytes;
            w.per_connection_kb = cfg.model.memory.per_connection_kb;
            w.llc_mb = static_cast<std::size_t>(cfg.model.memory.llc_mb);
            w.antagonist_mb = cfg.antagonist_mb;
            w.antagonist_instances = cfg.antagonist_instances;
            miss += sd::app::measureContention(w).miss_rate;
        }
        layer["app.contention_host_s"] = secondsSince(t0);
        layer["app.contention_calls"] =
            static_cast<double>(sweep.configs.size());
        layer["cache.llc_miss_ratio"] =
            miss / static_cast<double>(sweep.configs.size());
    }

    bool cycleLevel() const override { return false; }

    std::string
    describe() const override
    {
        const Sweep sweep = buildSweep();
        return "analytic server model: " +
               std::to_string(sweep.solo_points) +
               " solo points (5 placements x TLS/Deflate x 4/16/64 KB) + " +
               std::to_string(sweep.configs.size() - sweep.solo_points) +
               " Table I co-run points per pass";
    }

    void
    printAnchors() const override
    {
        std::printf("paper anchors (simulated vs paper, relative error):\n");
        for (const Anchor &a : anchors_)
            std::printf("  %-36s sim %8.3f  paper %8.3f  err %6.1f%%%s\n",
                        a.name.c_str(), a.sim, a.paper,
                        100.0 * std::fabs(a.sim - a.paper) / a.paper,
                        a.heldout ? "  (held out)" : "");
    }

  private:
    void
    verify(const Sweep &sweep,
           const std::vector<sd::app::ServerResult> &results,
           PassResult &res)
    {
        Digest digest;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            const auto &cfg = sweep.configs[i];
            ++res.attempted;
            for (double v : {r.rps, r.cpu_utilization, r.mem_bandwidth_gbps,
                             r.dram_bytes_per_request, r.leak_fraction,
                             r.latency_us, r.antagonist_slowdown})
                digest.f64(v);
            digest.u64(r.supported);
            const bool finite =
                std::isfinite(r.rps) && std::isfinite(r.latency_us) &&
                std::isfinite(r.leak_fraction) &&
                std::isfinite(r.antagonist_slowdown);
            const bool sane = !r.supported ||
                              (r.rps > 0 && r.leak_fraction >= 0 &&
                               r.leak_fraction <= 1 &&
                               r.antagonist_slowdown >= 0 &&
                               r.antagonist_slowdown < 1);
            // Only a size-changing ULP on a bump-in-the-wire NIC may be
            // unsupported; every TLS point must evaluate.
            const bool coverage =
                r.supported || (cfg.ulp == Ulp::kDeflate &&
                                cfg.placement == PlacementKind::kSmartNic);
            if (!finite || !sane || !coverage)
                res.fail("point " + std::to_string(i) + " (" +
                         r.placement_name + ", " +
                         std::to_string(cfg.message_bytes) +
                         " B): invalid model output");
        }
        res.digest = digest.value();

        auto rps = [&](Ulp ulp, std::size_t bytes, PlacementKind kind) {
            return results[soloIndex(ulp, bytes, kind)].rps;
        };
        auto &layer = res.layer;
        // The sweep's throughput in one figure: the geometric mean of
        // the modelled requests/s over every supported solo point.
        double log_rps = 0, supported = 0;
        for (std::size_t i = 0; i < sweep.solo_points; ++i)
            if (results[i].supported) {
                log_rps += std::log(results[i].rps);
                ++supported;
            }
        layer["sim_ops_per_s"] = std::exp(log_rps / supported);

        for (Ulp ulp : {Ulp::kTlsEncrypt, Ulp::kDeflate})
            for (std::size_t bytes : kSizes) {
                const double cpu = rps(ulp, bytes, PlacementKind::kCpu);
                layer["offload.rps_gain." +
                      std::string(ulp == Ulp::kTlsEncrypt ? "tls_"
                                                          : "deflate_") +
                      sizeKey(bytes)] =
                    cpu > 0 ? rps(ulp, bytes, PlacementKind::kSmartDimm) / cpu
                            : 0;
            }
        for (std::size_t bytes : kSizes)
            layer["app.leak_fraction." + sizeKey(bytes)] =
                results[soloIndex(Ulp::kTlsEncrypt, bytes,
                                  PlacementKind::kCpu)]
                    .leak_fraction;

        anchors_ = {
            {"fig11.rps_gain.tls_4k", 1.210, layer["offload.rps_gain.tls_4k"],
             false},
            {"fig11.rps_gain.tls_16k", 1.358,
             layer["offload.rps_gain.tls_16k"], false},
            {"fig12.rps_gain.deflate_4k", 5.09,
             layer["offload.rps_gain.deflate_4k"], false},
            {"fig12.rps_gain.deflate_16k", 10.28,
             layer["offload.rps_gain.deflate_16k"], false},
        };
        static constexpr double kPaperNginx[] = {15.8, 7.3, 28.7, 9.5};
        static constexpr double kPaperMcf[] = {15.5, 8.7, 37.9, 10.3};
        for (std::size_t k = 0; k < std::size(kCorunPlacements); ++k) {
            const PlacementKind kind = kCorunPlacements[k];
            const auto &solo = results[soloIndex(Ulp::kTlsEncrypt, 4096, kind)];
            const auto &corun = results[sweep.solo_points + k];
            const std::string key =
                std::string("offload.corun_slowdown.") + placementKey(kind);
            layer[key + ".nginx"] =
                solo.rps > 0 ? 100.0 * (1.0 - corun.rps / solo.rps) : 0;
            layer[key + ".mcf"] = 100.0 * corun.antagonist_slowdown;
            anchors_.push_back({"table1." + std::string(placementKey(kind)) +
                                    ".nginx_slowdown_pct",
                                kPaperNginx[k], layer[key + ".nginx"], true});
            anchors_.push_back({"table1." + std::string(placementKey(kind)) +
                                    ".mcf_slowdown_pct",
                                kPaperMcf[k], layer[key + ".mcf"], true});
        }
        double err[2] = {0, 0};
        double count[2] = {0, 0};
        for (const Anchor &a : anchors_) {
            err[a.heldout] += std::fabs(a.sim - a.paper) / a.paper;
            ++count[a.heldout];
        }
        layer["paper_err_pct"] = 100.0 * err[0] / count[0];
        layer["paper_err_pct.heldout"] = 100.0 * err[1] / count[1];
    }

    std::vector<Anchor> anchors_;
};

} // namespace

std::unique_ptr<Workload>
makeServerSweep(std::uint64_t)
{
    return std::make_unique<ServerSweep>();
}

} // namespace perfbench
