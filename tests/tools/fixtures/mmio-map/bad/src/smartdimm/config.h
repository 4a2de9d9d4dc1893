// Fixture: mmio-map/bad — kRegister overlaps kFreePages' 64-byte
// burst, kBroken is not 8-byte aligned, and kOutside does not fit the
// window.
#ifndef FIX_CONFIG_H
#define FIX_CONFIG_H

namespace sd::smartdimm {

enum class MmioReg : unsigned {
    kFreePages = 0x000,
    kRegister = 0x020,
    kBroken = 0x041,
    kOutside = 0x100000,
};

inline constexpr std::size_t kMmioBytes = 1ULL << 20;

struct Config {
    Addr mmio_base = 0xF000'0000ULL;
};

} // namespace sd::smartdimm

#endif
