#ifndef SD_MEM_TIMING_H
#define SD_MEM_TIMING_H

struct LinkTiming
{
    long round_trip = 600'000; ///< ticks
    long burst = 4;
    long recovery = 24; ///< declared, configured, never enforced
};

enum class DdrCommandType
{
    kActivate,
    kReadCas,
    kRefresh, ///< never issued
};

#endif
