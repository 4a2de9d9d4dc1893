/**
 * @file
 * Discrete-event simulation kernel. Components schedule callbacks at
 * absolute ticks; the queue executes them in (tick, priority,
 * insertion-order) order. Single-threaded by design — the simulated
 * system may have many cores, the simulator has one.
 *
 * Hot-path design: the heap orders small POD entries (tick, priority,
 * seq, pool slot) while the callbacks themselves live in a slot pool
 * with a free list. Sift operations therefore move 24-byte PODs, not
 * std::functions, and popping *moves* the callback out of its slot —
 * the seed implementation's std::priority_queue copied the whole
 * Entry (including the heap-allocated std::function state) out of
 * top() on every executed event, which dominated the simulator
 * profile at fleet scale.
 *
 * Time contract:
 *  - schedule(when, ...) requires when >= now(); scheduling into the
 *    past is a programming error (asserts).
 *  - run() drains the queue; now() ends at the last executed tick.
 *  - runUntil(limit) executes every event with tick <= limit —
 *    including events scheduled *during* the call at ticks <= limit —
 *    and then advances now() to exactly `limit`, even when the queue
 *    is empty or the next pending event sits at limit + 1. Callers
 *    can therefore schedule at `limit` immediately after the call
 *    (same-tick scheduling is legal; earlier is not): time never
 *    moves backwards across a runUntil() boundary.
 *  - reset() drops pending events, zeroes now()/seq/executed, and
 *    releases single-owner ownership (see below). After reset() the
 *    queue behaves exactly like a freshly constructed one.
 *
 * Concurrency contract: single-owner. One thread constructs and
 * drives a queue (and the whole simulated system hanging off it);
 * scaling across cores means one independent EventQueue per thread,
 * never sharing one. The contract is spot-checked at runtime by a
 * SingleOwnerChecker on every mutating entry point; reset() releases
 * ownership so a finished system can be handed to another thread,
 * which re-acquires on its first mutating call.
 */

#ifndef SD_SIM_EVENT_QUEUE_H
#define SD_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "sim/unique_function.h"

namespace sd {

/**
 * Time-ordered event queue. Events are arbitrary callables; ties at
 * the same tick break on priority (lower first), then FIFO.
 */
class EventQueue
{
  public:
    /**
     * Move-only with a 128-byte inline buffer: scheduling a lambda of
     * up to 128 bytes never heap-allocates, and captures may own
     * move-only state directly instead of via shared_ptr.
     */
    using Callback = UniqueFunction;

    /** Default event priority. */
    static constexpr int kDefaultPriority = 100;

    /** @return the current simulation time. */
    Tick now() const { return now_; }

    /** Schedule @p cb at absolute tick @p when (>= now()). */
    void schedule(Tick when, Callback cb, int priority = kDefaultPriority);

    /** Schedule @p cb @p delta ticks in the future. */
    void scheduleIn(Tick delta, Callback cb,
                    int priority = kDefaultPriority)
    {
        schedule(now_ + delta, std::move(cb), priority);
    }

    /** Run until the queue drains. @return final tick. */
    Tick run();

    /**
     * Run every event with tick <= @p limit (including ones scheduled
     * at <= limit during the call), then set now() to exactly @p
     * limit. @return now() (== limit). See the file comment for the
     * full boundary contract.
     */
    Tick runUntil(Tick limit);

    /** @return true when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending (not yet executed) events. */
    std::size_t pending() const { return heap_.size(); }

    /** Number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Drop all pending events, reset time/sequence/executed to zero
     * and release single-owner ownership (handoff point).
     */
    void reset();

  private:
    /**
     * Heap node: ordering key plus the index of the callback's pool
     * slot. Deliberately POD-small so sift operations stay cheap.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::int32_t priority;
    };

    /** @return true when @p a executes before @p b. */
    static bool
    before(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Pop the top entry and move its callback out of the pool. */
    Callback popTop(Entry &top);

    /** Runtime spot-check of the single-owner contract. */
    SingleOwnerChecker owner_;

    /** Binary min-heap of POD entries (root at index 0). */
    std::vector<Entry> heap_;
    /** Callback storage; entries index into this via Entry::slot. */
    std::vector<Callback> pool_;
    /** Recycled pool slots. */
    std::vector<std::uint32_t> free_slots_;

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace sd

#endif // SD_SIM_EVENT_QUEUE_H
