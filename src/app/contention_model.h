/**
 * @file
 * LLC-contention model: drives the *real* cache substrate with a
 * synthetic access stream shaped like a web server's working set
 * (per-connection socket/TLS buffers + streamed message bodies) and
 * measures the leak fraction — how much of a streamed message
 * round-trips DRAM before the NIC consumes it (Obs. 3 / Fig. 3).
 *
 * The replay is split by cache set across the host's cores. Each
 * shard owns a private Cache of the full geometry and a contiguous
 * range of its sets, replays the whole access stream from the same
 * seed, and issues only the accesses that map to its sets. An LRU set
 * evolves only from its own accesses, in order, and no random draw
 * depends on a cache outcome, so every set ends exactly as in one
 * serial replay. Shards return integer counts, whose sums give the
 * result: it is bit-identical for any shard count.
 */

#ifndef SD_APP_CONTENTION_MODEL_H
#define SD_APP_CONTENTION_MODEL_H

#include <cstdint>

#include "cache/cache.h"
#include "common/random.h"

namespace sd::app {

/** Workload description for the probe. */
struct ContentionWorkload
{
    unsigned connections = 1024;
    std::size_t message_bytes = 4096;
    double per_connection_kb = 64.0;
    std::size_t llc_mb = 28;
    unsigned llc_ways = 16;
    /** Extra cache-hostile co-runner footprint (mcf-like), bytes. */
    std::size_t antagonist_mb = 0;

    /** Co-runner instances: scales the antagonist access rate that
     *  interleaves with the server's event loop. */
    unsigned antagonist_instances = 0;
};

/** Probe result. */
struct ContentionResult
{
    double leak_fraction = 0.0; ///< streamed lines that spill to DRAM
    double miss_rate = 0.0;     ///< overall LLC miss rate of the probe
};

/**
 * Measure the leak fraction by simulating interleaved connection
 * activity on a scaled cache, with one shard per hardware thread.
 * Deterministic given the seed.
 */
ContentionResult measureContention(const ContentionWorkload &workload,
                                   std::uint64_t seed = 7);

namespace detail {

/**
 * measureContention() over @p shards set ranges (clamped to [1, sets]);
 * the calling thread runs shard 0. Exposed so tests can pin that the
 * result does not depend on the shard count.
 */
ContentionResult measureContentionShards(const ContentionWorkload &workload,
                                         std::uint64_t seed, unsigned shards);

} // namespace detail

} // namespace sd::app

#endif // SD_APP_CONTENTION_MODEL_H
