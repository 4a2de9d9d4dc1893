#include "app/open_loop.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "smartdimm/deflate_dsa.h"

namespace sd::app {

namespace {

/** Software service time of one op on a CPU worker, in ticks (ps). */
Tick
cpuServiceTicks(const OpenLoopConfig &config, std::size_t bytes)
{
    const offload::CpuParams &cpu = config.cost.cpu;
    double cycles;
    if (config.ulp == smartdimm::UlpKind::kTlsEncrypt)
        cycles = cpu.aesni_cycles_per_byte * static_cast<double>(bytes) +
                 cpu.tls_record_cycles;
    else
        cycles =
            cpu.deflate_cycles_per_byte * static_cast<double>(bytes) +
            cpu.deflate_setup_cycles;
    const double ns = cycles / cpu.freq_ghz;
    return static_cast<Tick>(ns * 1000.0);
}

} // namespace

OpenLoopResult
runOpenLoopServer(const OpenLoopConfig &config)
{
    OpenLoopResult result;
    result.offered_ops_per_sec = config.arrival_rate;
    if (config.requests == 0)
        return result;

    topo::Topology topo(config.topology);
    topo::ShardDispatcher dispatcher(topo, config.dispatcher);
    EventQueue &events = topo.events();

    // Deflate offloads are page-granular on the device; larger server
    // messages would be striped — the open-loop generator keeps one
    // op per request, so clamp instead.
    const std::size_t bytes =
        config.ulp == smartdimm::UlpKind::kDeflate
            ? std::min(config.message_bytes,
                       smartdimm::kDeflateMaxPayload)
            : config.message_bytes;
    const Tick cpu_ticks = cpuServiceTicks(config, bytes);

    // Everything random is drawn up front so event execution order
    // can never change the stream: the run is a pure function of the
    // seed. Open loop: arrival times are fixed before the run starts.
    Rng rng(config.seed);
    struct Request
    {
        Tick arrival = 0;
        std::uint64_t flow = 0;
    };
    const double mean_gap = 1e12 / config.arrival_rate; // ps
    std::vector<Request> requests(config.requests);
    Tick t = 0;
    for (Request &r : requests) {
        t += std::max<Tick>(
            1, static_cast<Tick>(rng.exponential(mean_gap)));
        r.arrival = t;
        r.flow = rng.below(config.flows == 0 ? 1 : config.flows);
    }
    std::vector<std::uint8_t> payload(bytes);
    rng.fill(payload.data(), payload.size());
    std::uint8_t key[16];
    rng.fill(key, sizeof(key));

    struct State
    {
        std::vector<Tick> latencies;
        std::uint64_t dimm_ops = 0;
        std::uint64_t cpu_ops = 0;
        Tick last_completion = 0;
        std::vector<Tick> worker_free;
        /** In-flight ops per flow: a flow unpins when it idles. */
        std::unordered_map<std::uint64_t, unsigned> outstanding;
    };
    State st;
    st.latencies.reserve(config.requests);
    st.worker_free.assign(std::max(1u, config.cpu_workers), 0);

    auto record = [&st, &events](Tick arrival, bool on_dimm) {
        st.latencies.push_back(events.now() - arrival);
        st.last_completion = std::max(st.last_completion, events.now());
        ++(on_dimm ? st.dimm_ops : st.cpu_ops);
    };

    auto runOnCpu = [&st, &events, &record, cpu_ticks](Tick arrival) {
        auto worker = std::min_element(st.worker_free.begin(),
                                       st.worker_free.end());
        const Tick done =
            std::max(events.now(), *worker) + cpu_ticks;
        *worker = done;
        events.schedule(done,
                        [arrival, &record] { record(arrival, false); });
    };

    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request &r = requests[i];
        events.schedule(r.arrival, [&, i, r] {
            const unsigned slot = dispatcher.place(r.flow);
            if (slot == topo::ShardDispatcher::kCpuPath) {
                runOnCpu(r.arrival);
                return;
            }
            topo::Topology::Slot &dev = topo.slot(slot);

            compcpy::CompCpyParams params;
            params.size = bytes;
            params.ulp = config.ulp;
            params.ordered =
                config.ulp == smartdimm::UlpKind::kDeflate;
            params.message_id = 1 + i;
            std::memcpy(params.key, key, sizeof(key));
            params.iv[4] = static_cast<std::uint8_t>(i >> 24);
            params.iv[5] = static_cast<std::uint8_t>(i >> 16);
            params.iv[6] = static_cast<std::uint8_t>(i >> 8);
            params.iv[7] = static_cast<std::uint8_t>(i);
            params.sbuf = dev.driver.alloc(bytes);
            const std::size_t dbytes =
                compcpy::CompCpyEngine::destPages(params) * kPageSize;
            params.dbuf = dev.driver.alloc(dbytes);
            // Payload arrives DMA-resident in DRAM (the NIC staged
            // it); the engine's own sbuf flush provides the ordering.
            topo.store().write(params.sbuf, payload.data(),
                               payload.size());
            ++st.outstanding[r.flow];

            // Release into the slot that allocated the buffers: the
            // flow's pin can move to another tier (or lapse) while
            // this op is in flight.
            auto done = [&, r, slot, params, dbytes](
                            const compcpy::CompletionRecord &) {
                record(r.arrival, true);
                topo::Topology::Slot &owner = topo.slot(slot);
                owner.driver.release(params.sbuf, params.size);
                owner.driver.release(params.dbuf, dbytes);
                if (--st.outstanding[r.flow] == 0)
                    dispatcher.releaseFlow(r.flow);
            };
            if (!dispatcher.submit(
                    slot, compcpy::Descriptor::single(params), 0,
                    std::move(done))) {
                // The queue filled between placement and submit:
                // fall back to the CPU path for this op.
                dev.driver.release(params.sbuf, params.size);
                dev.driver.release(params.dbuf, dbytes);
                if (--st.outstanding[r.flow] == 0)
                    dispatcher.releaseFlow(r.flow);
                runOnCpu(r.arrival);
            }
        });
    }

    events.run();

    result.completed = st.latencies.size();
    result.dimm_ops = st.dimm_ops;
    result.cpu_ops = st.cpu_ops;
    result.shed_to_sibling = dispatcher.stats().shed_to_sibling;
    result.shed_to_cpu = dispatcher.stats().shed_to_cpu;
    const Tick span = st.last_completion > requests.front().arrival
                          ? st.last_completion - requests.front().arrival
                          : 1;
    result.achieved_ops_per_sec =
        static_cast<double>(result.completed) * 1e12 /
        static_cast<double>(span);
    std::sort(st.latencies.begin(), st.latencies.end());
    result.p50_us =
        static_cast<double>(sortedPercentile(st.latencies, 0.50)) / 1e6;
    result.p99_us =
        static_cast<double>(sortedPercentile(st.latencies, 0.99)) / 1e6;
    result.max_us = st.latencies.empty()
                        ? 0
                        : static_cast<double>(st.latencies.back()) / 1e6;
    return result;
}

} // namespace sd::app
