#include "app/contention_model.h"

#include <algorithm>
#include <system_error>
#include <thread>
#include <vector>

#include "common/types.h"

namespace sd::app {

namespace {

/** Associativity of the modelled LLC. */
constexpr unsigned kLlcWays = 16;

/** The probe's geometry and address layout; every shard reads it. */
struct ProbeLayout
{
    cache::CacheConfig cfg;
    std::size_t sets = 0;
    unsigned connections = 0;
    std::size_t conn_bytes = 0;
    std::size_t message_bytes = 0;
    std::size_t antagonist_bytes = 0;
    unsigned antagonist_rate = 0; ///< antagonist lines per connection
    Addr conn_base = 0;
    Addr msg_base = 0;
    Addr out_base = 0;
    Addr ant_base = 0;
};

ProbeLayout
layoutFor(const ContentionWorkload &workload)
{
    // Scale the experiment down 4x so the probe stays cheap: the
    // leak fraction depends on the working-set : LLC ratio, which the
    // scaling preserves.
    constexpr unsigned kScale = 4;

    ProbeLayout p;
    p.cfg.size_bytes =
        std::max<std::size_t>((workload.llc_mb << 20) / kScale,
                              64 * 1024);
    p.cfg.ways = kLlcWays;
    p.cfg.ddio_ways = 2;
    p.cfg.cpu_ways = kLlcWays;
    p.sets = cache::checkedConfig(p.cfg).sets();

    p.connections = std::max(1u, workload.connections / kScale);
    p.conn_bytes =
        static_cast<std::size_t>(workload.per_connection_kb * 1024.0);
    p.message_bytes = workload.message_bytes;
    p.antagonist_bytes = (workload.antagonist_mb << 20) / kScale;
    p.antagonist_rate = 64 * std::max(1u, workload.antagonist_instances);

    // Address-space layout: per-connection state, inbound message
    // staging, outbound response buffers, antagonist working set.
    p.conn_base = 0;
    p.msg_base =
        p.conn_base + static_cast<Addr>(p.connections) * p.conn_bytes;
    p.out_base =
        p.msg_base + static_cast<Addr>(p.connections) * p.message_bytes;
    p.ant_base =
        p.out_base + static_cast<Addr>(p.connections) * p.message_bytes;
    return p;
}

/** What one shard counted; the sums over shards are the whole probe's. */
struct ShardCounts
{
    std::uint64_t in_lines = 0;
    std::uint64_t in_leaked = 0;
    std::uint64_t out_lines = 0;
    std::uint64_t out_leaked = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/**
 * Replay the probe's whole access stream, issuing to a private LLC
 * only the accesses whose set lies in [first_set, end_set). A set's
 * LRU state depends only on the accesses mapped to it, in order, and
 * no RNG draw depends on a cache outcome, so each set here ends
 * exactly as it would in one cache that saw every access.
 */
ShardCounts
replayShard(const ProbeLayout &p, std::uint64_t seed, std::size_t first_set,
            std::size_t end_set)
{
    cache::Cache llc(p.cfg);
    Rng rng(seed);
    ShardCounts counts;

    const std::size_t span = end_set - first_set;
    const auto setOf = [&](Addr addr) {
        return static_cast<std::size_t>((addr >> kLineBits) % p.sets);
    };
    // Unsigned wrap makes sets below first_set fail the test too.
    const auto mine = [&](std::size_t set) {
        return set - first_set < span;
    };
    const auto nextSet = [&](std::size_t set) {
        return set + 1 == p.sets ? 0 : set + 1;
    };
    const auto msgOf = [&](unsigned c) {
        return p.msg_base + static_cast<Addr>(c) * p.message_bytes;
    };
    const auto outOf = [&](unsigned c) {
        return p.out_base + static_cast<Addr>(c) * p.message_bytes;
    };

    // The storage/NIC DMAs and the CPU stages run asynchronously, so
    // a buffer sits in the LLC for a long usage distance while other
    // connections' work evicts it (Obs. 3). In a closed loop every
    // connection has a request in flight, so one event-loop lap spans
    // them all: the usage distance grows with the connection count,
    // which is exactly Fig. 3's x-axis. Each round is one lap in
    // batched phases; the third is measured.
    for (int round = 0; round < 3; ++round) {
        const bool measure = round == 2;

        // Phase A: storage DMAs land for every connection (DDIO).
        for (unsigned c = 0; c < p.connections; ++c) {
            const Addr msg = msgOf(c);
            std::size_t set = setOf(msg);
            for (std::size_t off = 0; off < p.message_bytes;
                 off += kCacheLineSize, set = nextSet(set))
                if (mine(set))
                    llc.access(msg + off, true, cache::AllocClass::kDdio,
                               true);
        }

        // Phase B: the event loop touches every connection's state
        // (sockets, TLS contexts, timers).
        for (unsigned c = 0; c < p.connections; ++c) {
            // Touch a randomised share of the state contiguously so
            // the walk covers every cache set. Heterogeneous
            // footprints (some connections cold, some hot) soften the
            // LRU capacity cliff into the gradual growth real servers
            // exhibit.
            const Addr state =
                p.conn_base + static_cast<Addr>(c) * p.conn_bytes;
            const std::size_t touched = static_cast<std::size_t>(
                static_cast<double>(p.conn_bytes) *
                (0.15 + 0.7 * rng.uniform()));
            std::size_t set = setOf(state);
            for (std::size_t off = 0; off < touched;
                 off += kCacheLineSize, set = nextSet(set))
                if (mine(set))
                    llc.access(state + off, (off & 256) != 0,
                               cache::AllocClass::kCpu);
            if (p.antagonist_bytes == 0)
                continue;
            // Every shard draws the whole stream, so the draws for
            // later connections stay in step.
            for (unsigned k = 0; k < p.antagonist_rate; ++k) {
                const Addr a =
                    p.ant_base + lineAlign(rng.below(p.antagonist_bytes));
                const bool is_write = rng.chance(0.3);
                if (mine(setOf(a)))
                    llc.access(a, is_write, cache::AllocClass::kCpu);
            }
        }

        // Phase C: the ULP stage reads each inbound message (a miss
        // is a spill) and writes the outbound response.
        for (unsigned c = 0; c < p.connections; ++c) {
            const Addr msg = msgOf(c);
            const Addr out = outOf(c);
            std::size_t msg_set = setOf(msg);
            std::size_t out_set = setOf(out);
            for (std::size_t off = 0; off < p.message_bytes;
                 off += kCacheLineSize, msg_set = nextSet(msg_set),
                             out_set = nextSet(out_set)) {
                if (mine(msg_set)) {
                    const bool hit =
                        llc.access(msg + off, false, cache::AllocClass::kCpu)
                            .hit;
                    if (measure) {
                        ++counts.in_lines;
                        counts.in_leaked += hit ? 0 : 1;
                    }
                }
                if (mine(out_set))
                    llc.access(out + off, true, cache::AllocClass::kCpu,
                               true);
            }
        }
    }

    // Phase D: the NIC's TX fetch runs one event-loop lap behind, so
    // the previous lap's responses are fetched after this lap's phase
    // C. The NIC snoops without re-allocating, which changes no cache
    // state, so only the measured lap's fetch needs replaying.
    for (unsigned c = 0; c < p.connections; ++c) {
        const Addr out = outOf(c);
        std::size_t set = setOf(out);
        for (std::size_t off = 0; off < p.message_bytes;
             off += kCacheLineSize, set = nextSet(set)) {
            if (mine(set)) {
                ++counts.out_lines;
                counts.out_leaked += llc.contains(out + off) ? 0 : 1;
            }
        }
    }

    counts.hits = llc.stats().hits;
    counts.misses = llc.stats().misses;
    return counts;
}

} // namespace

ContentionResult
detail::measureContentionShards(const ContentionWorkload &workload,
                                std::uint64_t seed, unsigned shards)
{
    const ProbeLayout p = layoutFor(workload);
    shards = static_cast<unsigned>(std::clamp<std::size_t>(shards, 1, p.sets));
    const auto firstSet = [&](unsigned shard) {
        return p.sets * shard / shards;
    };
    std::vector<ShardCounts> counts(shards);
    const auto run = [&](unsigned shard) {
        counts[shard] =
            replayShard(p, seed, firstSet(shard), firstSet(shard + 1));
    };

    // Shards 1.. run on their own threads, joined when `threads` goes
    // out of scope; a shard whose thread cannot start runs here.
    {
        std::vector<std::jthread> threads;
        threads.reserve(shards - 1);
        for (unsigned shard = 1; shard < shards; ++shard) {
            try {
                threads.emplace_back(run, shard);
            } catch (const std::system_error &) {
                run(shard);
            }
        }
        run(0);
    }

    ShardCounts total;
    for (const ShardCounts &c : counts) {
        total.in_lines += c.in_lines;
        total.in_leaked += c.in_leaked;
        total.out_lines += c.out_lines;
        total.out_leaked += c.out_leaked;
        total.hits += c.hits;
        total.misses += c.misses;
    }
    ContentionResult result;
    const std::uint64_t lines = total.in_lines + total.out_lines;
    result.leak_fraction =
        lines ? static_cast<double>(total.in_leaked + total.out_leaked) /
                    static_cast<double>(lines)
              : 0.0;
    cache::CacheStats stats;
    stats.hits = total.hits;
    stats.misses = total.misses;
    result.miss_rate = stats.missRate();
    return result;
}

ContentionResult
measureContention(const ContentionWorkload &workload, std::uint64_t seed)
{
    return detail::measureContentionShards(
        workload, seed, std::thread::hardware_concurrency());
}

} // namespace sd::app
