#include "sim/event_queue.h"

#include <utility>

#include "common/log.h"

namespace sd {

void
EventQueue::push(const Entry &in)
{
    const Entry e = in;
    // Sift the hole up from the new last position, then fill it once.
    std::size_t i = heap_.size();
    heap_.emplace_back();
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
EventQueue::replaceTop(const Entry &in)
{
    const Entry e = in;
    // Sift the hole down from the root, then fill it once.
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], e))
            break;
        heap_[i] = heap_[child];
        i = child;
    }
    heap_[i] = e;
}

void
EventQueue::grow(Lane &lane)
{
    const std::size_t cap = lane.ring.size();
    std::vector<Entry> ring(cap ? 2 * cap : kMinRing);
    for (std::uint32_t i = 0; i < lane.count; ++i)
        ring[i] = lane.ring[(lane.head + i) & lane.mask];
    lane.ring.swap(ring);
    lane.head = 0;
    lane.mask = static_cast<std::uint32_t>(lane.ring.size() - 1);
}

void
EventQueue::append(std::uint32_t index, const Entry &e)
{
    Lane &lane = lanes_[index];
    if (lane.count == lane.ring.size())
        grow(lane);
    Entry &cell = lane.ring[(lane.head + lane.count) & lane.mask];
    cell = e;
    cell.lane = index;
    if (lane.count++ == 0)
        push(cell);
}

void
EventQueue::removeTop(const Entry &top)
{
    if (top.lane != kNoLane) {
        Lane &lane = lanes_[top.lane];
        if (--lane.count != 0) {
            // The lane's next head takes the popped one's place; it
            // sorts after it, so it can only sink.
            lane.head = (lane.head + 1) & lane.mask;
            replaceTop(lane.ring[lane.head]);
            return;
        }
        // An empty lane's next append lands on its old head's cell.
    }
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        replaceTop(last);
}

EventQueue::Callback
EventQueue::popTop(Entry &top)
{
    top = heap_.front();
    removeTop(top);
    // Move the callback out and recycle the slot *before* running it:
    // a callback that schedules (the common case — self-rescheduling
    // clocks, pipelined completions) reuses the hot slot immediately.
    Callback cb = std::move(pool_[top.slot]);
    pool_[top.slot] = nullptr;
    free_slots_.push_back(top.slot);
    return cb;
}

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    owner_.check();
    SD_ASSERT(when >= now_, "scheduling into the past (%llu < %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    SD_ASSERT(priority >= -kPriorityBias && priority < kPriorityBias,
              "event priority %d outside the packed key's range",
              priority);
    SD_ASSERT(seq_ < (std::uint64_t{1} << kSeqBits),
              "event sequence number exhausts the packed key");
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
        pool_[slot] = std::move(cb);
    } else {
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.push_back(std::move(cb));
    }
    const auto biased = static_cast<std::uint64_t>(priority + kPriorityBias);
    const Entry e{when, biased << kSeqBits | seq_++, slot, kNoLane};

    const Lane &in_order = lanes_[0];
    std::uint32_t index = kNoLane;
    if (in_order.count == 0) {
        if (heap_.size() >= kShallow)
            index = 0;
    } else if (!before(e, in_order.tail())) {
        index = 0;
    } else if (const Tick delay = when - now_; delay >> kSeqBits == 0) {
        // The key takes the delay where the order key has seq.
        const std::uint64_t key = delay << kPriorityBits | biased;
        const auto keyed = static_cast<std::uint32_t>(
            1 + ((key * 0x9e3779b97f4a7c15ull) >> (64 - kKeyedLaneBits)));
        Lane &lane = lanes_[keyed];
        if (lane.count == 0)
            lane.key = key;
        if (lane.key == key)
            index = keyed;
    }
    if (index == kNoLane)
        push(e);
    else
        append(index, e);
}

std::size_t
EventQueue::pending() const
{
    // The heap holds every entry that is in no lane, plus one copy of
    // each non-empty lane's head.
    std::size_t n = heap_.size();
    for (const Lane &lane : lanes_)
        n += lane.count - (lane.count != 0);
    return n;
}

Tick
EventQueue::run()
{
    owner_.check();
    while (!heap_.empty()) {
        Entry top;
        Callback cb = popTop(top);
        now_ = top.when;
        ++executed_;
        cb();
    }
    return now_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    owner_.check();
    while (!heap_.empty() && heap_.front().when <= limit) {
        Entry top;
        Callback cb = popTop(top);
        now_ = top.when;
        ++executed_;
        cb();
    }
    // Land exactly on the boundary even when idle or when the next
    // event sits past it, so follow-up schedule(limit, ...) calls are
    // legal and time never moves backwards (see header contract).
    if (now_ < limit)
        now_ = limit;
    return now_;
}

void
EventQueue::reset()
{
    owner_.check();
    for (Lane &lane : lanes_) {
        lane.head = 0;
        lane.count = 0;
    }
    heap_.clear();
    pool_.clear();
    free_slots_.clear();
    now_ = 0;
    token_base_ += seq_ + 1;
    seq_ = 0;
    executed_ = 0;
    // A drained, zeroed queue is the natural handoff point.
    owner_.release();
}

} // namespace sd
