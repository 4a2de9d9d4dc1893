#include "app/contention_model.h"

#include <algorithm>
#include <optional>
#include <system_error>
#include <thread>
#include <vector>

#include "common/bitops.h"
#include "common/types.h"

namespace sd::app {

namespace {

/** Associativity of the modelled LLC. */
constexpr unsigned kLlcWays = 16;

/** The probe's geometry and address layout; every shard reads it. */
struct ProbeLayout
{
    cache::CacheConfig cfg;
    Divisor sets{1}; ///< the LLC's set count, line numbers reduce by
    unsigned connections = 0;
    std::size_t conn_bytes = 0;
    std::size_t message_bytes = 0;
    /** The antagonist working set in bytes; empty when there is none. */
    std::optional<Divisor> antagonist_bytes;
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
    p.sets = Divisor(cache::checkedConfig(p.cfg).sets());

    p.connections = std::max(1u, workload.connections / kScale);
    p.conn_bytes =
        static_cast<std::size_t>(workload.per_connection_kb * 1024.0);
    p.message_bytes = workload.message_bytes;
    if (const std::size_t bytes = (workload.antagonist_mb << 20) / kScale)
        p.antagonist_bytes.emplace(bytes);
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

/** @return how many 64 B lines a walk of @p bytes touches. */
std::size_t
linesIn(std::size_t bytes)
{
    return static_cast<std::size_t>(divCeil(bytes, kCacheLineSize));
}

/**
 * The lines of one contiguous walk whose sets lie in a shard's range
 * [first_set, first_set + span), as ascending runs of line offsets.
 * Line k of a walk whose line 0 maps to set s0 maps to set
 * (s0 + k) mod sets, so the range meets a walk of n lines in at most
 * ceil(n / sets) + 1 runs, `sets` offsets apart, found with no
 * per-line test.
 */
class OwnRuns
{
  public:
    OwnRuns(std::size_t s0, std::size_t lines, std::size_t sets,
            std::size_t first_set, std::size_t span)
        : lines_(lines), sets_(sets), gap_(sets - span)
    {
        // How far s0 lies past first_set, mod sets.
        const std::size_t ahead =
            s0 >= first_set ? s0 - first_set : s0 + sets - first_set;
        if (ahead < span) {
            // Line 0 is ours: the first run is cut short at its start.
            begin_ = 0;
            end_ = span - ahead;
        } else {
            begin_ = sets - ahead;
            end_ = begin_ + span;
        }
    }

    bool done() const { return begin_ >= lines_; }
    std::size_t begin() const { return begin_; }
    std::size_t end() const { return std::min(end_, lines_); }

    void next()
    {
        begin_ = end_ + gap_;
        end_ += sets_;
    }

  private:
    std::size_t lines_;
    std::size_t sets_;
    std::size_t gap_; ///< offsets from one run's end to the next's start
    std::size_t begin_ = 0;
    std::size_t end_ = 0; ///< may pass lines_; end() clips it
};

/**
 * Replay the probe's access stream into a private LLC, issuing only
 * the accesses whose set lies in [first_set, end_set): each walk is
 * enumerated as the runs of its lines that map there. A set's LRU
 * state depends only on the accesses mapped to it, in order, and no
 * RNG draw depends on a cache outcome, so each set here ends exactly
 * as it would in one cache that saw every access.
 */
ShardCounts
replayShard(const ProbeLayout &p, std::uint64_t seed, std::size_t first_set,
            std::size_t end_set)
{
    cache::Cache llc(p.cfg);
    Rng rng(seed);
    ShardCounts counts;

    const std::size_t span = end_set - first_set;
    const std::size_t msg_lines = linesIn(p.message_bytes);
    const auto setOf = [&](Addr addr) {
        return static_cast<std::size_t>(p.sets.mod(addr >> kLineBits));
    };
    // The runs of the walk of @p lines from @p base that are ours.
    const auto runsOf = [&](Addr base, std::size_t lines) {
        return OwnRuns(setOf(base), lines, p.sets.value(), first_set, span);
    };
    // Unsigned wrap makes sets below first_set fail the test too.
    const auto mine = [&](std::size_t set) {
        return set - first_set < span;
    };
    const auto line = [](Addr base, std::size_t k) {
        return base + static_cast<Addr>(k) * kCacheLineSize;
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
            for (OwnRuns r = runsOf(msg, msg_lines); !r.done(); r.next())
                for (std::size_t k = r.begin(); k < r.end(); ++k)
                    llc.access(line(msg, k), true, cache::AllocClass::kDdio,
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
            // Bytes [256, 512) of every 512 are written: line k is a
            // write when bit 2 of k is set.
            for (OwnRuns r = runsOf(state, linesIn(touched)); !r.done();
                 r.next())
                for (std::size_t k = r.begin(); k < r.end(); ++k)
                    llc.access(line(state, k), (k & 4) != 0,
                               cache::AllocClass::kCpu);
            if (!p.antagonist_bytes)
                continue;
            // Every shard draws the whole stream, so the draws for
            // later connections stay in step.
            for (unsigned k = 0; k < p.antagonist_rate; ++k) {
                const Addr a =
                    p.ant_base + lineAlign(rng.below(*p.antagonist_bytes));
                const bool is_write = rng.chance(0.3);
                if (mine(setOf(a)))
                    llc.access(a, is_write, cache::AllocClass::kCpu);
            }
        }

        // Phase C: the ULP stage reads each inbound message (a miss
        // is a spill) and writes the outbound response. The two walks
        // interleave line by line, so their runs are merged: each set
        // sees its accesses in stream order, by offset and with the
        // read before the write at the same offset.
        for (unsigned c = 0; c < p.connections; ++c) {
            const Addr msg = msgOf(c);
            const Addr out = outOf(c);
            OwnRuns in_runs = runsOf(msg, msg_lines);
            OwnRuns out_runs = runsOf(out, msg_lines);
            // Offsets at or past msg_lines mean the walk is done.
            std::size_t in_k = in_runs.begin();
            std::size_t out_k = out_runs.begin();
            while (in_k < msg_lines || out_k < msg_lines) {
                if (in_k <= out_k) {
                    const bool hit =
                        llc.access(line(msg, in_k), false,
                                   cache::AllocClass::kCpu)
                            .hit;
                    if (measure) {
                        ++counts.in_lines;
                        counts.in_leaked += hit ? 0 : 1;
                    }
                    if (++in_k == in_runs.end()) {
                        in_runs.next();
                        in_k = in_runs.begin();
                    }
                } else {
                    llc.access(line(out, out_k), true,
                               cache::AllocClass::kCpu, true);
                    if (++out_k == out_runs.end()) {
                        out_runs.next();
                        out_k = out_runs.begin();
                    }
                }
            }
        }
    }

    // Phase D: the NIC's TX fetch runs one event-loop lap behind, so
    // the previous lap's responses are fetched after this lap's phase
    // C. The NIC snoops without re-allocating, which changes no cache
    // state, so only the measured lap's fetch needs replaying.
    for (unsigned c = 0; c < p.connections; ++c) {
        const Addr out = outOf(c);
        for (OwnRuns r = runsOf(out, msg_lines); !r.done(); r.next()) {
            counts.out_lines += r.end() - r.begin();
            for (std::size_t k = r.begin(); k < r.end(); ++k)
                counts.out_leaked += llc.contains(line(out, k)) ? 0 : 1;
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
    const std::size_t sets = p.sets.value();
    shards = static_cast<unsigned>(std::clamp<std::size_t>(shards, 1, sets));
    const auto firstSet = [&](unsigned shard) {
        return sets * shard / shards;
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
