/**
 * @file
 * Default CXL.mem link timing, shared by the device simulator's link
 * model (mem::CxlLinkConfig) and the analytic placement model
 * (offload::CxlParams). Both structs default from these constants, so
 * the two layers start from one definition of the link.
 */

#ifndef SD_COMMON_CXL_DEFAULTS_H
#define SD_COMMON_CXL_DEFAULTS_H

namespace sd {

/** Link round trip, request to response (CXL 2.0 switch-hop class
 *  latencies span roughly 300-1500 ns; 600 is a mid-range hop). */
inline constexpr double kCxlRoundTripNs = 600.0;

/** Flex-bus payload rate per direction (GB/s, x8 CXL 2.0). */
inline constexpr double kCxlLinkGbps = 32.0;

} // namespace sd

#endif // SD_COMMON_CXL_DEFAULTS_H
