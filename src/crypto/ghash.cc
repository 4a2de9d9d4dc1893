#include "crypto/ghash.h"

namespace sd::crypto {

Ghash::Ghash(const Gf128 &h) : key_(kernels::ghashKeyInit(h)) {}

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

} // namespace sd::crypto
