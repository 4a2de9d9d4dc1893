/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**) so every
 * experiment is reproducible from a seed. Not cryptographic.
 */

#ifndef SD_COMMON_RANDOM_H
#define SD_COMMON_RANDOM_H

#include <cstdint>

#include "common/bitops.h"

namespace sd {

/**
 * Deterministic PRNG with a small state, suitable for workload
 * generation and loss injection. Implements xoshiro256**.
 */
class Rng
{
  public:
    /** Seed the generator; identical seeds give identical streams. */
    explicit Rng(std::uint64_t seed = 0x5d15'7ead'cafe'f00dULL);

    /** @return the next 64 random bits. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** @return a uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t below(std::uint64_t bound);

    /**
     * below(bound.value()): the same draws, with Divisor::mod in place
     * of the two remainders, for a bound drawn against many times.
     */
    std::uint64_t
    below(const Divisor &bound)
    {
        // Rejection sampling to avoid modulo bias: draws below
        // -bound % bound are rejected. That threshold is less than
        // bound, so it is computed only for a draw below bound.
        for (;;) {
            const std::uint64_t r = next();
            if (r >= bound.value())
                return bound.mod(r);
            if (r >= bound.mod(-bound.value()))
                return r;
        }
    }

    /** @return a uniform integer in [lo, hi]. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Sample an exponential distribution with the given mean. */
    double exponential(double mean);

    /**
     * Sample a bounded Zipf-like distribution over [0, n) with skew
     * @p s, used for popularity-skewed object selection.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

    /** Fill @p dst with @p len pseudo-random bytes. */
    void fill(std::uint8_t *dst, std::size_t len);

  private:
    std::uint64_t state_[4];

    static std::uint64_t splitMix(std::uint64_t &x);

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

} // namespace sd

#endif // SD_COMMON_RANDOM_H
