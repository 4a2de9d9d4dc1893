/**
 * @file
 * Bit-field extraction helpers used by the DDR address mapper and the
 * SmartDIMM slot decoder, and the exact remainder by a fixed divisor
 * (`Divisor`) the LLC and the contention probe map lines to sets with.
 */

#ifndef SD_COMMON_BITOPS_H
#define SD_COMMON_BITOPS_H

#include <cstdint>

#include "common/log.h"

namespace sd {

/** Extract bits [lo, lo+width) of @p value. */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned lo, unsigned width)
{
    if (width == 0)
        return 0;
    if (width >= 64)
        return value >> lo;
    return (value >> lo) & ((1ULL << width) - 1);
}

/** Insert @p field into bits [lo, lo+width) of @p value. */
constexpr std::uint64_t
insertBits(std::uint64_t value, unsigned lo, unsigned width,
           std::uint64_t field)
{
    const std::uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    return (value & ~(mask << lo)) | ((field & mask) << lo);
}

/**
 * Checked narrowing of a 64-bit index into unsigned. Address-map and
 * dispatcher geometry math divides/mods 64-bit line counts down to
 * channel/DIMM/slot indices; the result must fit the declared bound or
 * the geometry itself is broken, so the narrowing asserts instead of
 * truncating silently.
 */
inline unsigned
narrowIdx(std::uint64_t value, std::uint64_t bound)
{
    SD_ASSERT(value < bound,
              "index %llu out of range (bound %llu)",
              static_cast<unsigned long long>(value),
              static_cast<unsigned long long>(bound));
    return static_cast<unsigned>(value);
}

/** @return floor(log2(x)); x must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t x)
{
    unsigned r = 0;
    while (x >>= 1)
        ++r;
    return r;
}

/** @return true when x is a power of two (and non-zero). */
constexpr bool
isPowerOf2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/**
 * @return M = ceil(2^128 / d), the reciprocal fastmod() takes; @p d
 * must be non-zero. For d = 1, M is 2^128 and wraps to 0, which
 * fastmod() turns into the right remainder, 0.
 */
constexpr unsigned __int128
fastmodReciprocal(std::uint64_t d)
{
    return ~static_cast<unsigned __int128>(0) / d + 1;
}

/**
 * (n mod d) for any 64-bit @p n and non-zero @p d, given
 * M = fastmodReciprocal(d): three multiplies instead of a divide
 * (Lemire, Kaser and Kurz, "Faster remainder by direct computation").
 */
constexpr std::uint64_t
fastmod(std::uint64_t n, unsigned __int128 reciprocal, std::uint64_t d)
{
    using U128 = unsigned __int128;
    // The low 128 bits of M * n are the fraction n / d; scaling it by
    // d leaves the remainder in bits [128, 192).
    const U128 low = reciprocal * n;
    const U128 bottom = U128{static_cast<std::uint64_t>(low)} * d;
    const U128 top = U128{static_cast<std::uint64_t>(low >> 64)} * d;
    return static_cast<std::uint64_t>((top + (bottom >> 64)) >> 64);
}

/**
 * A fixed non-zero divisor d, prepared once so that mod(n) is exact
 * for every 64-bit n without a divide: a mask when d is a power of
 * two; Lemire's 64-bit reciprocal (two multiplies) when d and n are
 * both below 2^32, as for every line the contention probe touches;
 * and fastmod()'s 128-bit reciprocal otherwise.
 */
class Divisor
{
  public:
    explicit Divisor(std::uint64_t d)
        : d_(nonZero(d)), pow2_(isPowerOf2(d_)),
          narrow_limit_(!pow2_ && d_ < kNarrow ? kNarrow : 0),
          reciprocal64_(d_ < kNarrow ? ~std::uint64_t{0} / d_ + 1 : 0),
          reciprocal128_(fastmodReciprocal(d_))
    {
    }

    /** @return d. */
    std::uint64_t value() const { return d_; }

    /** @return n mod d. */
    std::uint64_t
    mod(std::uint64_t n) const
    {
        using U128 = unsigned __int128;
        if (pow2_)
            return n & (d_ - 1);
        // Both operands below 2^32: the low 64 bits of M * n are the
        // fraction n / d, and scaling it by d leaves the remainder in
        // the high word (Lemire, Kaser and Kurz, Theorem 1).
        if (n < narrow_limit_)
            return static_cast<std::uint64_t>(
                (U128{reciprocal64_ * n} * d_) >> 64);
        return fastmod(n, reciprocal128_, d_);
    }

  private:
    static constexpr std::uint64_t kNarrow = std::uint64_t{1} << 32;

    static std::uint64_t
    nonZero(std::uint64_t d)
    {
        SD_ASSERT(d > 0, "Divisor of zero");
        return d;
    }

    std::uint64_t d_;
    bool pow2_;
    /** 2^32 when the 64-bit reciprocal applies to d, else 0. */
    std::uint64_t narrow_limit_;
    std::uint64_t reciprocal64_;      ///< ceil(2^64 / d), for d < 2^32
    unsigned __int128 reciprocal128_; ///< fastmodReciprocal(d)
};

} // namespace sd

#endif // SD_COMMON_BITOPS_H
