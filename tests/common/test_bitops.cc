/**
 * @file
 * Bit-field helpers used by the address mapper, and the exact
 * remainders (fastmod, Divisor) the cache and the contention probe
 * index sets with.
 */

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/random.h"

namespace {

using namespace sd;

TEST(Bitops, ExtractBits)
{
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffu);
    EXPECT_EQ(bits(0b101100, 2, 3), 0b011u);
    EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
    EXPECT_EQ(bits(0x1234, 0, 0), 0u);
}

TEST(Bitops, InsertBits)
{
    EXPECT_EQ(insertBits(0, 8, 8, 0xab), 0xab00u);
    EXPECT_EQ(insertBits(0xffff, 4, 4, 0), 0xff0fu);
    // Field wider than value is masked.
    EXPECT_EQ(insertBits(0, 0, 4, 0x1f), 0xfu);
}

TEST(Bitops, InsertThenExtractRoundTrip)
{
    std::uint64_t v = 0;
    v = insertBits(v, 6, 3, 0b101);
    v = insertBits(v, 20, 14, 0x1abc);
    EXPECT_EQ(bits(v, 6, 3), 0b101u);
    EXPECT_EQ(bits(v, 20, 14), 0x1abcu);
}

TEST(Bitops, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
}

TEST(Bitops, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
}

TEST(Bitops, FastmodMatchesRemainder)
{
    Rng rng(3);
    for (const std::uint64_t d :
         {1ULL, 3ULL, 64ULL, 6912ULL, (1ULL << 32) + 1, ~0ULL}) {
        const unsigned __int128 m = fastmodReciprocal(d);
        const std::uint64_t edges[] = {0, 1, d - 1, d, d + 1, ~0ULL - 1,
                                       ~0ULL};
        for (const std::uint64_t n : edges)
            EXPECT_EQ(fastmod(n, m, d), n % d) << n << " mod " << d;
        for (int i = 0; i < 10000; ++i) {
            const std::uint64_t n = rng.next();
            EXPECT_EQ(fastmod(n, m, d), n % d) << n << " mod " << d;
        }
    }
}

TEST(Bitops, DivisorMatchesRemainder)
{
    // Powers of two take the mask, divisors below 2^32 the 64-bit
    // reciprocal for numerators below 2^32, and everything else the
    // 128-bit one; the edges sit on both sides of each switch.
    constexpr std::uint64_t k32 = 1ULL << 32;
    Rng rng(11);
    const std::uint64_t divisors[] = {1,       2,   3,       64,
                                      6912,    k32 - 1, k32, k32 + 1,
                                      (1ULL << 63) + 1, ~0ULL};
    for (const std::uint64_t d : divisors) {
        const Divisor divisor(d);
        EXPECT_EQ(divisor.value(), d);
        const std::uint64_t edges[] = {0, 1, d - 1, d, k32 - 1, k32,
                                       k32 + 1, ~0ULL};
        for (const std::uint64_t n : edges)
            EXPECT_EQ(divisor.mod(n), n % d) << n << " mod " << d;
        // Every other random numerator is cut below 2^32, so the
        // 64-bit reciprocal sees as many as the 128-bit one.
        for (int i = 0; i < 10000; ++i) {
            const std::uint64_t n = rng.next() >> (i % 2 ? 32 : 0);
            EXPECT_EQ(divisor.mod(n), n % d) << n << " mod " << d;
        }
    }
}

} // namespace
