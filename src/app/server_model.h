/**
 * @file
 * Request-level web-server system model (the Fig. 3/11/12/Table-I
 * engine): an nginx-like server with 10 worker threads serving a
 * closed-loop wrk-like generator over C persistent connections.
 * Each request flows storage-DMA -> ULP (priced by
 * offload::messageCost) -> TCP send -> NIC DMA; the model resolves
 * the achieved requests/second against three coupled capacities —
 * CPU cycles, DRAM bandwidth and NIC line rate — with LLC contention
 * measured by the real cache substrate.
 */

#ifndef SD_APP_SERVER_MODEL_H
#define SD_APP_SERVER_MODEL_H

#include <cstdint>
#include <string>

#include "app/contention_model.h"
#include "offload/placement.h"

namespace sd::app {

/** One evaluation point. */
struct ServerConfig
{
    unsigned connections = 1024;   ///< paper: 1024 wrk connections
    std::size_t message_bytes = 4096;
    offload::Ulp ulp = offload::Ulp::kTlsEncrypt;
    offload::PlacementKind placement = offload::PlacementKind::kCpu;
    std::size_t antagonist_mb = 0;        ///< mcf-like co-runner
    unsigned antagonist_instances = 0;
    offload::CostModel model;
};

/** Model outputs (one Fig. 11/12 bar group). */
struct ServerResult
{
    double rps = 0;              ///< requests per second
    double cpu_utilization = 0;  ///< of the worker threads, 0..1
    double mem_bandwidth_gbps = 0;
    double mem_bw_utilization = 0; ///< of peak DRAM bandwidth
    double dram_bytes_per_request = 0; ///< per-request memory traffic
    double leak_fraction = 0;
    double latency_us = 0;        ///< per-request service latency
    bool supported = true;        ///< placement supports the ULP
    std::string placement_name;

    /** Antagonist slowdown relative to its solo run (Table I). */
    double antagonist_slowdown = 0;
};

/** Evaluate the closed-loop fixed point for one configuration. */
ServerResult evaluateServer(const ServerConfig &config);

} // namespace sd::app

#endif // SD_APP_SERVER_MODEL_H
