// Fixture: mmio-map/good — unique, 8-byte-aligned, 64-byte-spaced
// register offsets that fit the per-DIMM window.
#ifndef FIX_CONFIG_H
#define FIX_CONFIG_H

namespace sd::smartdimm {

enum class MmioReg : unsigned {
    kFreePages = 0x000,
    kRegister = 0x040,
    kFaultStatus = 0x080,
};

inline constexpr std::size_t kMmioBytes = 1ULL << 20;

struct Config {
    Addr mmio_base = 0xF000'0000ULL;
};

} // namespace sd::smartdimm

#endif
