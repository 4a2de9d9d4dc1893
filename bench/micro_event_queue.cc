/**
 * @file
 * Event-queue microbenchmark (google-benchmark): host ns per executed
 * event, each one a schedule plus a pop, on two fixed synthetic shapes
 * that stand in for perfbench's workloads. Callbacks do nothing but
 * reschedule, so the figure is the queue's own cost.
 *
 *  - MixedShape (`mixed_open_4x2_cxl`): a 1,500-entry staged batch of
 *    arrivals, kept 1,500 deep by re-staging each fired arrival behind
 *    the last one (in due order, like perfbench's up-front staging),
 *    plus self-rescheduling streams at fixed delays of about 1 ns,
 *    10 ns, 50 ns and 0.5 us, all at the default priority.
 *  - ClosedShape (`tls_closed_1x1`): a closed loop nine events deep;
 *    each event schedules its successor after one of that workload's
 *    few common delays, drawn by a fixed pseudo-random walk.
 *
 * The shapes are deterministic, so two builds run the identical event
 * sequence and their ns-per-event figures compare directly. It is not
 * a gate. On a shared host, run the two builds alternately, pinned to
 * one CPU (`taskset -c 3 ./micro_event_queue --benchmark_repetitions=5`),
 * and compare the minimum over several runs.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/types.h"
#include "sim/event_queue.h"

using namespace sd;

namespace {

constexpr Tick kNs = 1000;

/** Reschedules itself @p delay ticks after each firing. */
struct Stream
{
    EventQueue *q;
    Tick delay;

    void operator()() const { q->scheduleIn(delay, Stream{*this}); }
};

/**
 * One hop of a closed loop: picks its successor's delay by a seeded
 * walk over `tls_closed_1x1`'s commonest delays (12.5, 16.25, 2, 4 and
 * 60 ns carry 92% of its schedules), weighted roughly as there.
 */
struct Hop
{
    EventQueue *q;
    std::uint32_t state;

    void
    operator()() const
    {
        static constexpr Tick kDelays[] = {12500, 12500, 12500, 16250,
                                           16250, 2000,  4000,  60000};
        const std::uint32_t next = state * 1664525u + 1013904223u;
        q->scheduleIn(kDelays[next >> 29], Hop{q, next});
    }
};

/**
 * Runs @p q in slices of @p slice ticks and reports host time per
 * executed event as the `per_event` counter.
 */
void
runSlices(benchmark::State &state, EventQueue &q, Tick slice)
{
    const std::uint64_t start = q.executed();
    for (auto _ : state)
        benchmark::DoNotOptimize(q.runUntil(q.now() + slice));
    const double events = static_cast<double>(q.executed() - start);
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.counters["per_event"] = benchmark::Counter(
        events, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["pending"] = static_cast<double>(q.pending());
}

void
BM_MixedShape(benchmark::State &state)
{
    constexpr int kStaged = 1500;
    constexpr Tick kArrivalGap = 1000 * kNs;
    EventQueue q;
    for (int i = 1; i <= kStaged; ++i)
        q.schedule(i * kArrivalGap, Stream{&q, kStaged * kArrivalGap});
    struct
    {
        Tick delay;
        int streams;
    } const shape[] = {{1 * kNs, 2}, {10 * kNs, 8}, {50 * kNs, 4},
                       {500 * kNs, 2}};
    for (const auto &s : shape)
        for (int i = 0; i < s.streams; ++i)
            q.schedule(s.delay + static_cast<Tick>(i) * 137,
                       Stream{&q, s.delay});
    q.runUntil(100 * kArrivalGap); // warm-up: every lane at working size
    runSlices(state, q, 1 * kArrivalGap);
}
BENCHMARK(BM_MixedShape);

void
BM_ClosedShape(benchmark::State &state)
{
    constexpr int kDepth = 9;
    EventQueue q;
    for (int i = 0; i < kDepth; ++i)
        q.schedule(static_cast<Tick>(i) * 500,
                   Hop{&q, static_cast<std::uint32_t>(i)});
    q.runUntil(1000 * kNs);
    runSlices(state, q, 1000 * kNs);
}
BENCHMARK(BM_ClosedShape);

} // namespace

BENCHMARK_MAIN();
