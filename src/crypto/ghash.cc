#include "crypto/ghash.h"

#include "common/log.h"

namespace sd::crypto {

Ghash::Ghash(const Gf128 &h) : key_(kernels::ghashKeyInit(h))
{
    // One reservation up front (sized for the largest TLS record)
    // instead of growing the vector lazily mid-record.
    powers_.reserve(kGhashMaxRecordPowers);
    powers_.push_back(h);
}

void
Ghash::update(const std::uint8_t block[16])
{
    y_ = kernels::gfMulByH(key_, y_ ^ Gf128::load(block));
}

void
Ghash::updateBlocks(const std::uint8_t *blocks, std::size_t nblocks)
{
    y_ = kernels::ghashFold(key_, y_, blocks, nblocks);
}

const Gf128 &
Ghash::extendPowers(std::size_t k)
{
    SD_ASSERT(k >= 1, "H^0 is never used by GHASH");
    while (powers_.size() < k)
        powers_.push_back(kernels::gfMulByH(key_, powers_.back()));
    return powers_[k - 1];
}

Gf128
Ghash::positional(const std::uint8_t block[16], std::size_t index,
                  std::size_t total_blocks)
{
    SD_ASSERT(index < total_blocks, "block index outside message");
    return kernels::gfMulVia(key_.tier, Gf128::load(block),
                             power(total_blocks - index));
}

} // namespace sd::crypto
