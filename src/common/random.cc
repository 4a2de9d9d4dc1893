#include "common/random.h"

#include <cmath>

#include "common/log.h"

namespace sd {

std::uint64_t
Rng::splitMix(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix(sm);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    SD_ASSERT(bound > 0, "Rng::below requires a positive bound");
    // Rejection sampling to avoid modulo bias: draws below
    // -bound % bound are rejected. That threshold is less than bound,
    // so it is computed only for a draw below bound.
    for (;;) {
        const std::uint64_t r = next();
        if (r >= bound)
            return r % bound;
        if (r >= -bound % bound)
            return r;
    }
}

std::uint64_t
Rng::range(std::uint64_t lo, std::uint64_t hi)
{
    SD_ASSERT(lo <= hi, "Rng::range requires lo <= hi");
    return lo + below(hi - lo + 1);
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    SD_ASSERT(n > 0, "zipf requires a non-empty domain");
    // Inverse-CDF over a truncated harmonic series; adequate for
    // workload skew where n is modest (object catalogues).
    double h = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        h += 1.0 / std::pow(static_cast<double>(i), s);
    double target = uniform() * h;
    double acc = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i), s);
        if (acc >= target)
            return i - 1;
    }
    return n - 1;
}

void
Rng::fill(std::uint8_t *dst, std::size_t len)
{
    std::size_t i = 0;
    while (i + 8 <= len) {
        const std::uint64_t word = next();
        for (int b = 0; b < 8; ++b)
            dst[i++] = static_cast<std::uint8_t>(word >> (8 * b));
    }
    if (i < len) {
        const std::uint64_t word = next();
        for (int b = 0; i < len; ++b)
            dst[i++] = static_cast<std::uint8_t>(word >> (8 * b));
    }
}

} // namespace sd
