/**
 * @file
 * Native x86 kernels: AES-NI block encryption with 8-block CTR
 * pipelining and PCLMULQDQ carry-less GF(2^128) multiplication.
 *
 * Compiled into every build via per-function target attributes (no
 * -march flags needed); the dispatcher only routes here when
 * __builtin_cpu_supports() reports AES/PCLMUL/SSSE3 at runtime. On
 * non-x86 targets the functions compile to panic stubs — the
 * dispatcher never selects the native tier there.
 *
 * The PCLMUL path works in the *standard* polynomial domain: GCM's
 * reflected bit order is undone by reversing the bits within each
 * byte (two PSHUFB nibble lookups), after which the product reduces
 * modulo x^128 + x^7 + x^2 + x + 1 with the usual two-step fold.
 * This costs a few shuffles per operand but keeps the reduction
 * straightforward; parity with the bit-serial reference is enforced
 * by the kernel parity suite. The line-level GCM kernel keeps its
 * power table in that domain, so only each line's ciphertext blocks
 * and its result cross the domain boundary.
 */

#include <cstring>

#include "common/log.h"
#include "common/types.h"
#include "kernels/aes_kernel.h"
#include "kernels/gcm_kernel.h"
#include "kernels/ghash_kernel.h"

#if defined(__x86_64__) || defined(__i386__)
#define SD_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace sd::kernels {

#if SD_KERNELS_X86

bool
nativeSupported()
{
    static const bool ok = __builtin_cpu_supports("aes") &&
                           __builtin_cpu_supports("pclmul") &&
                           __builtin_cpu_supports("ssse3") &&
                           __builtin_cpu_supports("sse2");
    return ok;
}

namespace {

#define SD_TARGET_AES __attribute__((target("aes,ssse3,sse2")))
#define SD_TARGET_CLMUL __attribute__((target("pclmul,ssse3,sse2")))
#define SD_TARGET_GCM __attribute__((target("aes,pclmul,ssse3,sse2")))

/** Encrypt one loaded state with the whole round-key schedule. */
SD_TARGET_AES inline __m128i
aesniEncrypt1(__m128i state, const __m128i *rk, int rounds)
{
    state = _mm_xor_si128(state, rk[0]);
    for (int r = 1; r < rounds; ++r)
        state = _mm_aesenc_si128(state, rk[r]);
    return _mm_aesenclast_si128(state, rk[rounds]);
}

/** Load the whole round-key schedule of @p key into @p rk. */
SD_TARGET_AES inline void
loadRoundKeys(const AesKey &key, __m128i rk[15])
{
    for (int r = 0; r <= key.rounds; ++r)
        rk[r] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(key.rk.data() + 16 * r));
}

/**
 * GCM counter blocks iv || be32(ctr), built in registers: the IV words
 * and the native-order counter sit in one register, and a PSHUFB
 * byte-swaps the counter lane into place.
 */
struct CtrBlocks
{
    __m128i base; ///< iv words 0..2, first counter in lane 3
    __m128i swap; ///< keeps bytes 0..11, reverses bytes 12..15

    SD_TARGET_AES
    CtrBlocks(const std::uint8_t iv12[12], std::uint32_t first_ctr)
    {
        std::uint32_t w[3];
        std::memcpy(w, iv12, sizeof w);
        base = _mm_setr_epi32(static_cast<int>(w[0]), static_cast<int>(w[1]),
                              static_cast<int>(w[2]),
                              static_cast<int>(first_ctr));
        swap = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 14,
                             13, 12);
    }

    /** Counter block first_ctr + @p i (the counter wraps mod 2^32). */
    SD_TARGET_AES __m128i
    at(std::uint32_t i) const
    {
        return _mm_shuffle_epi8(
            _mm_add_epi32(base, _mm_setr_epi32(0, 0, 0, static_cast<int>(i))),
            swap);
    }
};

/** Keystream blocks i..i+N-1 of @p ctr, encrypted side by side. */
template <int N>
SD_TARGET_AES inline void
ctrKeystreamN(const __m128i *rk, int rounds, const CtrBlocks &ctr,
              std::uint32_t i, __m128i s[N])
{
    for (int j = 0; j < N; ++j)
        s[j] = _mm_xor_si128(ctr.at(i + static_cast<std::uint32_t>(j)),
                             rk[0]);
    for (int r = 1; r < rounds; ++r)
        for (int j = 0; j < N; ++j)
            s[j] = _mm_aesenc_si128(s[j], rk[r]);
    for (int j = 0; j < N; ++j)
        s[j] = _mm_aesenclast_si128(s[j], rk[rounds]);
}

/** Write N keystream blocks from block @p i on to @p out. */
template <int N>
SD_TARGET_AES inline void
storeKeystreamN(const __m128i *rk, int rounds, const CtrBlocks &ctr,
                std::size_t i, std::uint8_t *out)
{
    __m128i s[N];
    ctrKeystreamN<N>(rk, rounds, ctr, static_cast<std::uint32_t>(i), s);
    for (int j = 0; j < N; ++j)
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(out + (i + static_cast<std::size_t>(j)) * 16),
            s[j]);
}

/** Reverse the bit order within each byte of @p v. */
SD_TARGET_CLMUL inline __m128i
revBitsInBytes(__m128i v)
{
    const __m128i low_mask = _mm_set1_epi8(0x0f);
    const __m128i nib_rev =
        _mm_setr_epi8(0x0, 0x8, 0x4, 0xc, 0x2, 0xa, 0x6, 0xe,
                      0x1, 0x9, 0x5, 0xd, 0x3, 0xb, 0x7, 0xf);
    const __m128i lo = _mm_and_si128(v, low_mask);
    const __m128i hi =
        _mm_and_si128(_mm_srli_epi16(v, 4), low_mask);
    // LUT values are <= 0x0f, so the 16-bit-lane shift cannot bleed
    // set bits across byte boundaries.
    return _mm_or_si128(
        _mm_slli_epi16(_mm_shuffle_epi8(nib_rev, lo), 4),
        _mm_shuffle_epi8(nib_rev, hi));
}

/** GCM field element -> standard-domain polynomial register. */
SD_TARGET_CLMUL inline __m128i
toPoly(const Block128 &v)
{
    // Byte 0 of the GCM encoding is the most significant byte of hi;
    // loading it as the least significant register byte plus an
    // in-byte bit reversal puts coefficient x^i at register bit i.
    const __m128i raw = _mm_set_epi64x(
        static_cast<long long>(__builtin_bswap64(v.lo)),
        static_cast<long long>(__builtin_bswap64(v.hi)));
    return revBitsInBytes(raw);
}

SD_TARGET_CLMUL inline Block128
fromPoly(__m128i p)
{
    const __m128i raw = revBitsInBytes(p);
    alignas(16) std::uint64_t w[2];
    _mm_store_si128(reinterpret_cast<__m128i *>(w), raw);
    return Block128{__builtin_bswap64(w[0]), __builtin_bswap64(w[1])};
}

/** A polynomial-domain value kept in a Block128's storage. */
SD_TARGET_CLMUL inline __m128i
loadPoly(const Block128 &v)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(&v));
}

SD_TARGET_CLMUL inline void
storePoly(Block128 &v, __m128i p)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&v), p);
}

/** An unreduced 256-bit carry-less product (or sum of products). */
struct Product
{
    __m128i lo;
    __m128i mid;
    __m128i hi;
};

/** Add a * b to @p acc, schoolbook, without reducing. */
SD_TARGET_CLMUL inline void
clmulAdd(Product &acc, __m128i a, __m128i b)
{
    acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
    acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
    acc.mid = _mm_xor_si128(
        acc.mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                               _mm_clmulepi64_si128(a, b, 0x01)));
}

/** Reduce @p p modulo x^128 + x^7 + x^2 + x + 1. */
SD_TARGET_CLMUL inline __m128i
reduce(const Product &p)
{
    const __m128i plo = _mm_xor_si128(p.lo, _mm_slli_si128(p.mid, 8));
    const __m128i phi = _mm_xor_si128(p.hi, _mm_srli_si128(p.mid, 8));
    // Fold phi down with ghat = x^7 + x^2 + x + 1 (0x87), twice for
    // the <=7-bit spill.
    const __m128i ghat = _mm_set_epi64x(0, 0x87);
    const __m128i f0 = _mm_clmulepi64_si128(phi, ghat, 0x00);
    const __m128i f1 = _mm_clmulepi64_si128(phi, ghat, 0x01);
    __m128i res = _mm_xor_si128(plo, f0);
    res = _mm_xor_si128(res, _mm_slli_si128(f1, 8));
    const __m128i spill = _mm_srli_si128(f1, 8);
    return _mm_xor_si128(res, _mm_clmulepi64_si128(spill, ghat, 0x00));
}

/** a * b in the polynomial domain. */
SD_TARGET_CLMUL inline __m128i
mulPoly(__m128i a, __m128i b)
{
    Product p{_mm_setzero_si128(), _mm_setzero_si128(),
              _mm_setzero_si128()};
    clmulAdd(p, a, b);
    return reduce(p);
}

} // namespace

SD_TARGET_AES void
detail::aesEncryptNi(const AesKey &key, const std::uint8_t in[16],
                     std::uint8_t out[16])
{
    __m128i rk[15] = {};
    loadRoundKeys(key, rk);
    const __m128i state = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(in));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                     aesniEncrypt1(state, rk, key.rounds));
}

SD_TARGET_AES void
detail::aesCtrKeystreamNi(const AesKey &key, const std::uint8_t iv12[12],
                          std::uint32_t first_ctr, std::size_t nblocks,
                          std::uint8_t *out)
{
    __m128i rk[15] = {};
    loadRoundKeys(key, rk);
    const CtrBlocks ctr(iv12, first_ctr);

    // 8 independent counter blocks per step keep the aesenc pipeline
    // full (latency ~4 cycles, throughput 1-2/cycle on current cores);
    // the tail runs its blocks side by side as well.
    std::size_t i = 0;
    for (; i + 8 <= nblocks; i += 8)
        storeKeystreamN<8>(rk, key.rounds, ctr, i, out);
    if (i + 4 <= nblocks) {
        storeKeystreamN<4>(rk, key.rounds, ctr, i, out);
        i += 4;
    }
    switch (nblocks - i) {
    case 3:
        storeKeystreamN<3>(rk, key.rounds, ctr, i, out);
        break;
    case 2:
        storeKeystreamN<2>(rk, key.rounds, ctr, i, out);
        break;
    case 1:
        storeKeystreamN<1>(rk, key.rounds, ctr, i, out);
        break;
    default:
        break;
    }
}

SD_TARGET_CLMUL Block128
detail::gfMulClmul(const Block128 &a, const Block128 &b)
{
    return fromPoly(mulPoly(toPoly(a), toPoly(b)));
}

SD_TARGET_CLMUL void
detail::gcmLinePowersNi(GcmLinePowers &out, std::size_t last_blocks)
{
    __m128i h[4];
    h[0] = toPoly(out.key.h);
    for (int k = 1; k < 4; ++k)
        h[k] = mulPoly(h[k - 1], h[0]);
    for (int k = 0; k < 4; ++k)
        storePoly(out.h[static_cast<std::size_t>(k)], h[k]);
    // Same chain as the portable build: each earlier line's stride is
    // the next one's times H^(the next line's blocks).
    const std::size_t lines = out.stride.size();
    __m128i stride = h[0];
    storePoly(out.stride[lines - 1], stride);
    __m128i step = h[last_blocks - 1];
    for (std::size_t l = lines - 1; l-- > 0;) {
        stride = mulPoly(stride, step);
        storePoly(out.stride[l], stride);
        step = h[3];
    }
}

SD_TARGET_GCM Block128
detail::gcmLineNi(const AesKey &aes, const GcmLinePowers &powers,
                  const std::uint8_t iv12[12], std::size_t line,
                  const std::uint8_t *in, std::uint8_t *out,
                  std::size_t len)
{
    __m128i rk[15] = {};
    loadRoundKeys(aes, rk);
    __m128i c[4];
    ctrKeystreamN<4>(rk, aes.rounds,
                     CtrBlocks(iv12, 2 + static_cast<std::uint32_t>(4 * line)),
                     0, c);

    std::size_t nblocks = 4;
    if (len == kCacheLineSize) {
        for (int j = 0; j < 4; ++j) {
            c[j] = _mm_xor_si128(
                c[j], _mm_loadu_si128(
                          reinterpret_cast<const __m128i *>(in + 16 * j)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 16 * j),
                             c[j]);
        }
    } else {
        // The record's short last line: bounce through a buffer, and
        // zero-pad its last block for GHASH.
        alignas(16) std::uint8_t buf[kCacheLineSize] = {};
        std::memcpy(buf, in, len);
        for (int j = 0; j < 4; ++j)
            _mm_store_si128(
                reinterpret_cast<__m128i *>(buf + 16 * j),
                _mm_xor_si128(c[j], _mm_load_si128(reinterpret_cast<
                                        const __m128i *>(buf + 16 * j))));
        std::memcpy(out, buf, len);
        std::memset(buf + len, 0, kCacheLineSize - len);
        for (int j = 0; j < 4; ++j)
            c[j] = _mm_load_si128(reinterpret_cast<const __m128i *>(buf + 16 * j));
        nblocks = divCeil(len, kAesBlockBytes);
    }

    // One aggregated fold: sum C_b * H^(n-b) unreduced, reduce once,
    // then multiply by the line's stride power.
    Product sum{_mm_setzero_si128(), _mm_setzero_si128(),
                _mm_setzero_si128()};
    for (std::size_t b = 0; b < nblocks; ++b)
        clmulAdd(sum, revBitsInBytes(c[b]),
                 loadPoly(powers.h[nblocks - 1 - b]));
    return fromPoly(mulPoly(reduce(sum), loadPoly(powers.stride[line])));
}

#else // !SD_KERNELS_X86

bool
nativeSupported()
{
    return false;
}

void
detail::aesEncryptNi(const AesKey &, const std::uint8_t *, std::uint8_t *)
{
    SD_PANIC("native AES kernel selected on a non-x86 build");
}

void
detail::aesCtrKeystreamNi(const AesKey &, const std::uint8_t *,
                          std::uint32_t, std::size_t, std::uint8_t *)
{
    SD_PANIC("native AES kernel selected on a non-x86 build");
}

Block128
detail::gfMulClmul(const Block128 &, const Block128 &)
{
    SD_PANIC("native GHASH kernel selected on a non-x86 build");
}

void
detail::gcmLinePowersNi(GcmLinePowers &, std::size_t)
{
    SD_PANIC("native GCM kernel selected on a non-x86 build");
}

Block128
detail::gcmLineNi(const AesKey &, const GcmLinePowers &,
                  const std::uint8_t *, std::size_t, const std::uint8_t *,
                  std::uint8_t *, std::size_t)
{
    SD_PANIC("native GCM kernel selected on a non-x86 build");
}

#endif // SD_KERNELS_X86

} // namespace sd::kernels
