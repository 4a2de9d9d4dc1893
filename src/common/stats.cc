#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.h"

namespace sd {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0)
{
    SD_ASSERT(hi > lo && buckets >= 1, "degenerate histogram bounds");
}

void
Histogram::sample(double v)
{
    std::size_t idx;
    if (v < lo_) {
        idx = 0;
    } else if (v >= hi_) {
        idx = counts_.size() - 1;
    } else {
        idx = static_cast<std::size_t>((v - lo_) / width_);
        idx = std::min(idx, counts_.size() - 1);
    }
    ++counts_[idx];
    sum_ += v;
    ++count_;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    sum_ = 0.0;
    count_ = 0;
}

double
Histogram::percentile(double q) const
{
    SD_ASSERT(q > 0.0 && q <= 1.0, "percentile out of range");
    if (count_ == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= target)
            return bucketLow(i) + width_;
    }
    return hi_;
}

namespace {

/** Octave of @p v: 0 for values < kSubBuckets, else floor(log2). */
unsigned
octaveOf(std::uint64_t v)
{
    return v ? 63u - static_cast<unsigned>(std::countl_zero(v)) : 0u;
}

} // namespace

LogHistogram::LogHistogram()
    // Values below kSubBuckets get exact buckets; each octave >= 3
    // contributes kSubBuckets more, up to octave 63.
    : counts_(62 * kSubBuckets, 0)
{
}

std::size_t
LogHistogram::bucketIndex(std::uint64_t v)
{
    const unsigned octave = octaveOf(v);
    if (octave < 3)
        return static_cast<std::size_t>(v); // exact buckets 0..7
    const unsigned sub = static_cast<unsigned>(
        (v >> (octave - 3)) & (kSubBuckets - 1));
    return static_cast<std::size_t>(octave - 2) * kSubBuckets + sub;
}

std::uint64_t
LogHistogram::bucketHigh(std::size_t i)
{
    if (i < kSubBuckets)
        return i;
    const std::uint64_t octave = i / kSubBuckets + 2;
    const std::uint64_t sub = i % kSubBuckets;
    // Unsigned wrap yields UINT64_MAX for the topmost bucket.
    return (1ULL << octave) + ((sub + 1) << (octave - 3)) - 1;
}

namespace {

/** Relaxed CAS-min over a plain uint64_t cell. */
void
atomicMin(std::uint64_t &cell, std::uint64_t v)
{
    std::atomic_ref<std::uint64_t> ref(cell);
    std::uint64_t cur = ref.load(std::memory_order_relaxed);
    while (v < cur &&
           !ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/** Relaxed CAS-max over a plain uint64_t cell. */
void
atomicMax(std::uint64_t &cell, std::uint64_t v)
{
    std::atomic_ref<std::uint64_t> ref(cell);
    std::uint64_t cur = ref.load(std::memory_order_relaxed);
    while (v > cur &&
           !ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

} // namespace

void
LogHistogram::sample(std::uint64_t v)
{
    atomicMin(min_, v);
    atomicMax(max_, v);
    std::atomic_ref<std::uint64_t>(sum_).fetch_add(
        v, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(counts_[bucketIndex(v)])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t>(count_).fetch_add(
        1, std::memory_order_relaxed);
}

void
LogHistogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    sum_ = 0;
    min_ = ~std::uint64_t{0};
    max_ = 0;
    count_ = 0;
}

std::uint64_t
LogHistogram::percentile(double q) const
{
    SD_ASSERT(q > 0.0 && q <= 1.0, "percentile out of range");
    if (count_ == 0)
        return 0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= target)
            return std::min(bucketHigh(i), max_);
    }
    return max_;
}

Tick
sortedPercentile(const std::vector<Tick> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace sd
