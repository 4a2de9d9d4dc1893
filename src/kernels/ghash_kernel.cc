#include "kernels/ghash_kernel.h"

#include <array>

#include "common/log.h"

namespace sd::kernels {

namespace {

/** Multiply by x (one right shift in GCM bit order) with reduction. */
inline Block128
mulX(const Block128 &v)
{
    Block128 out;
    const bool lsb = v.lo & 1;
    out.lo = (v.lo >> 1) | (v.hi << 63);
    out.hi = v.hi >> 1;
    if (lsb)
        out.hi ^= 0xe100000000000000ULL; // R = 11100001 || 0^120
    return out;
}

/** Byte @p k (0 = most significant) of a field element. */
inline std::uint32_t
byteAt(const Block128 &v, int k)
{
    return k < 8 ? (v.hi >> (56 - 8 * k)) & 0xff
                 : (v.lo >> (56 - 8 * (k - 8))) & 0xff;
}

/**
 * Key-independent reduction table for the 8-bit Shoup step:
 * kRed8[r] = (element with byte r in the last position, i.e.
 * coefficients x^120..x^127) * x^8, which is exactly the term a
 * byte-wise right shift pushes out of the element.
 */
const std::array<Block128, 256> &
red8Table()
{
    static const std::array<Block128, 256> table = [] {
        std::array<Block128, 256> t{};
        for (unsigned r = 0; r < 256; ++r) {
            Block128 v{0, r};
            for (int i = 0; i < 8; ++i)
                v = mulX(v);
            t[r] = v;
        }
        return t;
    }();
    return table;
}

/** Same for the 4-bit step: kRed4[r] = {0, r(4-bit)} * x^4. */
const std::array<Block128, 16> &
red4Table()
{
    static const std::array<Block128, 16> table = [] {
        std::array<Block128, 16> t{};
        for (unsigned r = 0; r < 16; ++r) {
            Block128 v{0, r};
            for (int i = 0; i < 4; ++i)
                v = mulX(v);
            t[r] = v;
        }
        return t;
    }();
    return table;
}

/** z * x^8 using the precomputed reduction table. */
inline Block128
mulX8(const Block128 &z, const std::array<Block128, 256> &red)
{
    const std::uint32_t r = z.lo & 0xff;
    Block128 out{z.hi >> 8, (z.lo >> 8) | (z.hi << 56)};
    return out ^ red[r];
}

/** z * x^4 using the precomputed reduction table. */
inline Block128
mulX4(const Block128 &z, const std::array<Block128, 16> &red)
{
    const std::uint32_t r = z.lo & 0xf;
    Block128 out{z.hi >> 4, (z.lo >> 4) | (z.hi << 60)};
    return out ^ red[r];
}

/**
 * Shoup 8-bit table for a fixed multiplicand: m[b] = b * H where the
 * byte b carries coefficients x^0..x^7 (bit 7 of b = x^0, GCM order).
 */
void
buildMul8(const Block128 &h, Block128 *m)
{
    m[0x80] = h;
    for (unsigned i = 0x40; i; i >>= 1)
        m[i] = mulX(m[i << 1]);
    for (unsigned i = 2; i < 256; i <<= 1)
        for (unsigned j = 1; j < i; ++j)
            m[i | j] = m[i] ^ m[j];
}

} // namespace

Block128
gfMulScalar(const Block128 &a, const Block128 &b)
{
    // Right-shift multiplication per SP 800-38D: bit 0 of the GCM
    // representation is the most significant byte's MSB.
    Block128 z{};
    Block128 v = b;
    for (int i = 0; i < 128; ++i) {
        const std::uint64_t word = i < 64 ? a.hi : a.lo;
        const int bit = 63 - (i & 63);
        if ((word >> bit) & 1) {
            z.hi ^= v.hi;
            z.lo ^= v.lo;
        }
        const bool lsb = v.lo & 1;
        v.lo = (v.lo >> 1) | (v.hi << 63);
        v.hi >>= 1;
        if (lsb)
            v.hi ^= 0xe100000000000000ULL;
    }
    return z;
}

Block128
detail::gfMulTable4(const Block128 &a, const Block128 &b)
{
    // Per-call Shoup 4-bit table of b: n[r] = r * b with the nibble r
    // carrying coefficients x^0..x^3 (bit 3 of r = x^0).
    std::array<Block128, 16> n{};
    n[0x8] = b;
    n[0x4] = mulX(b);
    n[0x2] = mulX(n[0x4]);
    n[0x1] = mulX(n[0x2]);
    for (unsigned i = 2; i < 16; i <<= 1)
        for (unsigned j = 1; j < i; ++j)
            n[i | j] = n[i] ^ n[j];

    const auto &red = red4Table();
    // Horner over a's 32 nibbles, most significant (x^0..x^3) first.
    auto nibbleAt = [&a](int k) -> std::uint32_t {
        const std::uint64_t word = k < 16 ? a.hi : a.lo;
        return (word >> (60 - 4 * (k & 15))) & 0xf;
    };
    Block128 z = n[nibbleAt(31)];
    for (int k = 30; k >= 0; --k)
        z = mulX4(z, red) ^ n[nibbleAt(k)];
    return z;
}

Block128
detail::gfMulShoup8(const Block128 *m, const Block128 &x)
{
    const auto &red = red8Table();
    // Horner over x's 16 bytes, most significant first — i.e.
    // ascending shifts of lo then hi in the packed representation.
    Block128 z = m[x.lo & 0xff];
    for (int s = 8; s < 64; s += 8)
        z = mulX8(z, red) ^ m[(x.lo >> s) & 0xff];
    for (int s = 0; s < 64; s += 8)
        z = mulX8(z, red) ^ m[(x.hi >> s) & 0xff];
    return z;
}

GhashKey
ghashKeyInit(const Block128 &h)
{
    GhashKey key;
    key.tier = activeTier();
    key.h = h;
    if (key.tier == KernelTier::kTable) {
        // Tables for H^1..H^4; the powers themselves come from the
        // bit-serial reference (init-time cost, guaranteed correct).
        key.mul8.resize(4 * 256);
        Block128 hp = h;
        buildMul8(hp, key.mul8.data());
        for (int p = 1; p < 4; ++p) {
            hp = gfMulScalar(hp, h);
            buildMul8(hp, key.mul8.data() + 256 * p);
        }
    }
    return key;
}

Block128
gfMulByH(const GhashKey &key, const Block128 &x)
{
    switch (key.tier) {
    case KernelTier::kTable:
        return detail::gfMulShoup8(key.mul8.data(), x);
    case KernelTier::kNative:
        return detail::gfMulClmul(x, key.h);
    case KernelTier::kScalar:
    default:
        return gfMulScalar(x, key.h);
    }
}

Block128
ghashFold(const GhashKey &key, Block128 y, const std::uint8_t *blocks,
          std::size_t nblocks)
{
    if (key.tier == KernelTier::kTable) {
        const auto &red = red8Table();
        // t[j] multiplies by H^(4-j): the oldest block of a 4-group
        // still has 3 more folds ahead of it, so it takes the highest
        // power (aggregated reduction).
        const Block128 *t[4] = {
            key.mul8.data() + 256 * 3, key.mul8.data() + 256 * 2,
            key.mul8.data() + 256 * 1, key.mul8.data() + 256 * 0};
        while (nblocks >= 4) {
            Block128 x[4];
            for (int j = 0; j < 4; ++j)
                x[j] = Block128::load(blocks + 16 * j);
            x[0] = x[0] ^ y;
            // Four independent Shoup Horner chains, stepped in
            // lockstep so the table loads pipeline.
            Block128 z[4];
            for (int j = 0; j < 4; ++j)
                z[j] = t[j][x[j].lo & 0xff];
            for (int s = 8; s < 64; s += 8)
                for (int j = 0; j < 4; ++j)
                    z[j] = mulX8(z[j], red) ^ t[j][(x[j].lo >> s) & 0xff];
            for (int s = 0; s < 64; s += 8)
                for (int j = 0; j < 4; ++j)
                    z[j] = mulX8(z[j], red) ^ t[j][(x[j].hi >> s) & 0xff];
            y = z[0] ^ z[1] ^ z[2] ^ z[3];
            blocks += 64;
            nblocks -= 4;
        }
    }
    for (std::size_t i = 0; i < nblocks; ++i)
        y = gfMulByH(key, y ^ Block128::load(blocks + 16 * i));
    return y;
}

Block128
gfMulVia(KernelTier tier, const Block128 &a, const Block128 &b)
{
    switch (tier) {
    case KernelTier::kTable:
        return detail::gfMulTable4(a, b);
    case KernelTier::kNative:
        return detail::gfMulClmul(a, b);
    case KernelTier::kScalar:
    default:
        return gfMulScalar(a, b);
    }
}

} // namespace sd::kernels
