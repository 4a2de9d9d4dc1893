/**
 * @file
 * The FR-FCFS queues' AgeQueue against a std::vector reference: random
 * appends, erases at the front, near the front, in the middle and at
 * the back, and full scans must see the same keys in the same order,
 * across the head advancing, compaction and growth.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "mem/memory_controller.h"

namespace {

using namespace sd;

/** The controller's key shape: 16 bytes, compared field by field. */
struct Key
{
    std::uint64_t row;
    std::uint32_t flat_bank;
    std::uint32_t slot;

    bool operator==(const Key &) const = default;
};

void
expectSame(const mem::AgeQueue<Key> &queue, const std::vector<Key> &ref)
{
    ASSERT_EQ(queue.size(), ref.size());
    ASSERT_EQ(queue.empty(), ref.empty());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(queue[i], ref[i]) << "index " << i;
        ASSERT_EQ(queue.data()[i], ref[i]) << "index " << i;
    }
}

TEST(AgeQueue, MatchesVectorUnderRandomPushAndErase)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        Rng rng(seed);
        mem::AgeQueue<Key> queue;
        std::vector<Key> ref;
        std::uint32_t next = 0;
        for (int step = 0; step < 20'000; ++step) {
            // Phases of net growth and net drain, so the depth sweeps
            // from empty to a few hundred and the buffer both grows
            // and compacts.
            const bool growing = (step / 2'000) % 2 == 0;
            const bool push =
                ref.empty() || rng.below(100) < (growing ? 65u : 35u);
            if (push) {
                const Key key{rng.below(8), static_cast<std::uint32_t>(
                                                rng.below(16)),
                              next++};
                queue.push_back(key);
                ref.push_back(key);
            } else {
                std::size_t index = 0;
                switch (rng.below(4)) {
                  case 0: // the oldest: FR-FCFS's usual pick
                    break;
                  case 1: // a few keys in
                    index = rng.below(std::min<std::size_t>(ref.size(), 4));
                    break;
                  case 2: // anywhere
                    index = rng.below(ref.size());
                    break;
                  default: // the newest
                    index = ref.size() - 1;
                    break;
                }
                queue.erase(index);
                ref.erase(ref.begin() + static_cast<long>(index));
            }
            if (step % 97 == 0 || ref.size() < 3)
                expectSame(queue, ref);
            ASSERT_EQ(queue.size(), ref.size());
        }
        expectSame(queue, ref);
    }
}

TEST(AgeQueue, FrontErasesThenRefillReuseTheBuffer)
{
    // A FIFO at a steady depth: every erase is the oldest key, every
    // push lands on the tail, and the keys stay in age order through
    // the compactions.
    mem::AgeQueue<Key> queue;
    std::vector<Key> ref;
    for (std::uint32_t i = 0; i < 40; ++i) {
        queue.push_back({i, i, i});
        ref.push_back({i, i, i});
    }
    for (std::uint32_t i = 40; i < 5'000; ++i) {
        queue.erase(0);
        ref.erase(ref.begin());
        queue.push_back({i, i, i});
        ref.push_back({i, i, i});
    }
    expectSame(queue, ref);
    while (!ref.empty()) {
        queue.erase(0);
        ref.erase(ref.begin());
    }
    EXPECT_TRUE(queue.empty());
}

} // namespace
