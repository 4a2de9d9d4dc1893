/**
 * @file
 * Lightweight statistics primitives: scalar counters, gauges and
 * linear- and log-bucket histograms. trace::StatsRegistry
 * (trace/trace.h) turns them into named stats blocks.
 */

#ifndef SD_COMMON_STATS_H
#define SD_COMMON_STATS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sd {

/**
 * Monotonic event counter.
 *
 * Concurrency contract: inc() may be called from any number of
 * threads concurrently (relaxed atomic add through std::atomic_ref,
 * so the class stays trivially copyable for single-threaded use).
 * reset() requires quiescence — no concurrent inc().
 */
class Counter
{
  public:
    Counter() = default;

    /** Increment by @p n (default 1). Safe to call concurrently. */
    void
    inc(std::uint64_t n = 1)
    {
        std::atomic_ref<std::uint64_t>(value_).fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Reset to zero (between experiment phases; requires quiescence). */
    void reset() { value_ = 0; }

    /** @return the current count. */
    std::uint64_t
    value() const
    {
        // const_cast only to form the atomic_ref; the load mutates
        // nothing.
        return std::atomic_ref<std::uint64_t>(
                   const_cast<std::uint64_t &>(value_))
            .load(std::memory_order_relaxed);
    }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Linear-bucket histogram over [lo, hi); samples outside the range are
 * clamped into the first/last bucket and counted as underflow/overflow.
 */
class Histogram
{
  public:
    /** @param buckets number of equal-width buckets (>= 1). */
    Histogram(double lo, double hi, std::size_t buckets);

    /** Record one sample. */
    void sample(double v);

    /** Discard all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** @return value below which @p q of the samples fall (0 < q <= 1). */
    double percentile(double q) const;

    /** @return counts per bucket (for plotting). */
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    double
    bucketLow(std::size_t i) const
    {
        return lo_ + static_cast<double>(i) * width_;
    }

  private:
    double lo_;
    double hi_;
    double width_;
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    std::vector<std::uint64_t> counts_;
};

/**
 * Log-scale histogram over unsigned samples (latencies in ticks or
 * cycles): each power-of-two octave is split into a fixed number of
 * linear sub-buckets, HDR-histogram style, so percentiles stay within
 * ~12.5% relative error across the full 64-bit range with a few
 * hundred buckets. No range must be chosen up front, which makes it
 * the right shape for the trace layer's per-stage latency summaries.
 *
 * Concurrency contract: sample() may be called from many threads
 * concurrently (every accumulator mutation is a relaxed atomic RMW
 * through std::atomic_ref, so the class stays copyable and the
 * single-threaded observable behaviour is bit-identical). Readers
 * (count/mean/min/max/percentile) and reset() require quiescence —
 * they see a torn snapshot if samples race with them.
 */
class LogHistogram
{
  public:
    /** Linear sub-buckets per power-of-two octave. */
    static constexpr unsigned kSubBuckets = 8;

    LogHistogram();

    /** Record one sample. Safe to call concurrently. */
    void sample(std::uint64_t v);

    /** Discard all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    std::uint64_t sum() const { return sum_; }

    /**
     * Value below which @p q of the samples fall (0 < q <= 1),
     * reported as the containing bucket's upper bound.
     */
    std::uint64_t percentile(double q) const;

    /** Raw bucket counts (sparse tail is all zeros). */
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    /** Inclusive upper bound of bucket @p i. */
    static std::uint64_t bucketHigh(std::size_t i);

  private:
    static std::size_t bucketIndex(std::uint64_t v);

    std::vector<std::uint64_t> counts_;
    std::uint64_t sum_ = 0;
    /** UINT64_MAX sentinel while empty so concurrent CAS-min works. */
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * Instantaneous-level tracker (queue depth, occupancy, outstanding
 * ops): add()/sub() move the level, peak() remembers the high-water
 * mark. Single-owner — gauges live inside per-simulation components
 * (work queues), so no atomics; snapshot after the run.
 */
class Gauge
{
  public:
    void
    add(std::int64_t delta = 1)
    {
        value_ += delta;
        if (value_ > peak_)
            peak_ = value_;
    }

    void sub(std::int64_t delta = 1) { value_ -= delta; }

    void
    reset()
    {
        value_ = 0;
        peak_ = 0;
    }

    std::int64_t value() const { return value_; }
    std::int64_t peak() const { return peak_; }

  private:
    std::int64_t value_ = 0;
    std::int64_t peak_ = 0;
};

/**
 * The @p p quantile (0..1) of an ascending-sorted sample by rounding
 * to the nearest index; 0 when empty.
 */
Tick sortedPercentile(const std::vector<Tick> &sorted, double p);

} // namespace sd

#endif // SD_COMMON_STATS_H
