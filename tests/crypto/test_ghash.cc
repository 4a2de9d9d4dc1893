/**
 * @file
 * GF(2^128) arithmetic and GHASH properties: field axioms and the
 * streaming accumulator.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "crypto/ghash.h"

namespace {

using sd::Rng;
using sd::crypto::Gf128;
using sd::crypto::gfMul;
using sd::crypto::Ghash;

Gf128
randomElem(Rng &rng)
{
    return Gf128{rng.next(), rng.next()};
}

TEST(Gf128, LoadStoreRoundTrip)
{
    Rng rng(1);
    for (int i = 0; i < 64; ++i) {
        std::uint8_t bytes[16];
        rng.fill(bytes, 16);
        std::uint8_t back[16];
        Gf128::load(bytes).store(back);
        EXPECT_EQ(0, std::memcmp(bytes, back, 16));
    }
}

TEST(Gf128, MultiplicationIsCommutative)
{
    Rng rng(2);
    for (int i = 0; i < 32; ++i) {
        const Gf128 a = randomElem(rng);
        const Gf128 b = randomElem(rng);
        EXPECT_EQ(gfMul(a, b), gfMul(b, a));
    }
}

TEST(Gf128, MultiplicationIsAssociative)
{
    Rng rng(3);
    for (int i = 0; i < 16; ++i) {
        const Gf128 a = randomElem(rng);
        const Gf128 b = randomElem(rng);
        const Gf128 c = randomElem(rng);
        EXPECT_EQ(gfMul(gfMul(a, b), c), gfMul(a, gfMul(b, c)));
    }
}

TEST(Gf128, DistributesOverXor)
{
    Rng rng(4);
    for (int i = 0; i < 16; ++i) {
        const Gf128 a = randomElem(rng);
        const Gf128 b = randomElem(rng);
        const Gf128 c = randomElem(rng);
        EXPECT_EQ(gfMul(a ^ b, c), gfMul(a, c) ^ gfMul(b, c));
    }
}

TEST(Gf128, ZeroAnnihilates)
{
    Rng rng(5);
    const Gf128 a = randomElem(rng);
    EXPECT_EQ(gfMul(a, Gf128{}), (Gf128{}));
}

TEST(Gf128, IdentityElement)
{
    // The GCM multiplicative identity is the element whose first bit
    // (MSB of byte 0) is 1: 0x80000...0.
    const Gf128 one{0x8000000000000000ULL, 0};
    Rng rng(6);
    for (int i = 0; i < 16; ++i) {
        const Gf128 a = randomElem(rng);
        EXPECT_EQ(gfMul(a, one), a);
    }
}

TEST(Ghash, ResetClearsDigest)
{
    Rng rng(9);
    const Gf128 h = randomElem(rng);
    Ghash ghash(h);
    std::uint8_t block[16];
    rng.fill(block, 16);
    ghash.update(block);
    EXPECT_NE(ghash.digest(), (Gf128{}));
    ghash.reset();
    EXPECT_EQ(ghash.digest(), (Gf128{}));
}

} // namespace
