/**
 * @file
 * Discrete-event simulation kernel. Components schedule callbacks at
 * absolute ticks; the queue executes them in (tick, priority,
 * insertion-order) order. Single-threaded by design — the simulated
 * system may have many cores, the simulator has one.
 *
 * Hot-path design: sorted lanes in front of a small heap. Callbacks
 * live in a slot pool with a free list; the ordering structures move
 * only 24-byte POD entries (tick, packed order key, pool slot, lane),
 * and popping *moves* the callback out of its slot.
 *
 * A lane is a FIFO ring whose entries were appended in increasing
 * (tick, priority, seq) order, so its head is its minimum. The heap
 * holds the head of every non-empty lane plus the stragglers no lane
 * took, and its top is therefore the global minimum. schedule() puts
 * an entry in the first of:
 *  - the heap, while lane 0 is empty and the heap is shallower than
 *    kShallow: a short closed loop neither pays for lane bookkeeping
 *    nor allocates lane storage mid-run;
 *  - lane 0, which takes any entry that does not sort before its
 *    tail: in-order batches such as staged arrivals append in O(1);
 *  - the keyed lane that a multiply-shift hash of (when - now(),
 *    priority) selects, one of kKeyedLanes. The lane belongs to that
 *    key while it is non-empty. now() never recedes and seq only
 *    grows, so an entry with the lane's delay and priority never sorts
 *    before the lane's earlier entries, and it appends without a
 *    compare. A key that meets a live lane of another key falls
 *    through;
 *  - the heap, with an ordinary sift-up.
 * Popping an entry that came from a lane replaces the heap's top with
 * the lane's next head: one sift-down on a heap of a few entries,
 * instead of one on a heap as deep as everything pending. Every path
 * keeps each lane sorted and each live lane's head in the heap, which
 * is all the exact order needs; which path an entry takes changes only
 * the cost.
 *
 * The order key packs (priority + 2^15) << 48 | seq into 64 bits, so
 * one 128-bit compare of (tick, key) is the exact (tick, priority,
 * seq) order; schedule() asserts priority within [-2^15, 2^15) and
 * seq below 2^48. Ring capacities are powers of two, at least
 * kMinRing, that grow by doubling and are kept (reset() included), so
 * each ring holds at most twice its lane's peak occupancy and a steady
 * state allocates nothing.
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
 *    queue behaves exactly like a freshly constructed one, except that
 *    scheduleToken() keeps growing, so a token read before the reset
 *    never matches one read after it.
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
    std::size_t pending() const;

    /** Number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * A value that moves on every schedule() and on reset() and never
     * repeats on one queue: two equal reads mean nothing was scheduled
     * in between, so an event scheduled after the first read would
     * have taken the very next sequence number.
     */
    std::uint64_t scheduleToken() const { return token_base_ + seq_; }

    /**
     * Drop all pending events, reset time/sequence/executed to zero
     * and release single-owner ownership (handoff point).
     */
    void reset();

  private:
    /** Keyed lanes behind lane 0: 2^kKeyedLaneBits of them. */
    static constexpr unsigned kKeyedLaneBits = 4;
    static constexpr std::uint32_t kKeyedLanes = 1u << kKeyedLaneBits;
    static constexpr std::uint32_t kLanes = kKeyedLanes + 1;
    /** Entry::lane of a heap entry that belongs to no lane. */
    static constexpr std::uint32_t kNoLane = kLanes;
    /** While lane 0 is empty, a heap this shallow takes every entry. */
    static constexpr std::size_t kShallow = 128;
    /** A lane ring's first capacity. */
    static constexpr std::size_t kMinRing = 16;
    /** Field widths of the packed order key. */
    static constexpr unsigned kPriorityBits = 16;
    static constexpr unsigned kSeqBits = 64 - kPriorityBits;
    static constexpr int kPriorityBias = 1 << (kPriorityBits - 1);

    /**
     * Lane and heap node: ordering key plus the index of the
     * callback's pool slot and the lane the entry sits in. Deliberately
     * POD-small so ring appends and sift operations stay cheap.
     */
    struct Entry
    {
        Tick when;
        /** (priority + kPriorityBias) << kSeqBits | seq. */
        std::uint64_t order;
        std::uint32_t slot;
        std::uint32_t lane;
    };

    /** @return true when @p a executes before @p b. */
    static bool
    before(const Entry &a, const Entry &b)
    {
        using U128 = unsigned __int128;
        return (U128{a.when} << 64 | a.order) <
               (U128{b.when} << 64 | b.order);
    }

    /** FIFO ring of entries in increasing order. */
    struct Lane
    {
        /** Power-of-two capacity; every element is storage. */
        std::vector<Entry> ring;
        /** ring.size() - 1 once the ring has storage. */
        std::uint32_t mask = 0;
        std::uint32_t head = 0;
        std::uint32_t count = 0;
        /** Keyed lanes, while count > 0: delay << kPriorityBits |
         *  biased priority. */
        std::uint64_t key = 0;

        const Entry &
        tail() const
        {
            return ring[(head + count - 1) & mask];
        }
    };

    /** Append @p e to lane @p index; a new head also enters the heap. */
    void append(std::uint32_t index, const Entry &e);
    /** Double lane @p lane's ring, unrolling it to start at index 0. */
    void grow(Lane &lane);

    /** Insert @p e into the heap. */
    void push(const Entry &e);
    /** Replace the heap's top with @p e and restore the heap order. */
    void replaceTop(const Entry &e);

    /** Remove the heap's top, @p top, refilling it from its lane. */
    void removeTop(const Entry &top);
    /** Pop the top entry and move its callback out of the pool. */
    Callback popTop(Entry &top);

    /** Runtime spot-check of the single-owner contract. */
    SingleOwnerChecker owner_;

    /** Lane 0 (in-order) and the keyed lanes. */
    Lane lanes_[kLanes];
    /** Binary min-heap of lane heads and stragglers (root at index 0). */
    std::vector<Entry> heap_;
    /** Callback storage; entries index into this via Entry::slot. */
    std::vector<Callback> pool_;
    /** Recycled pool slots. */
    std::vector<std::uint32_t> free_slots_;

    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    /** Grows past every token handed out by reset(). */
    std::uint64_t token_base_ = 0;
};

} // namespace sd

#endif // SD_SIM_EVENT_QUEUE_H
