#ifndef SD_MEM_LINK_H
#define SD_MEM_LINK_H

#include "mem/timing.h"

// Nothing sets timing_: every link carries the same default, a
// per-instance copy of a constant.
class Link
{
  public:
    long roundTrip() const { return timing_.round_trip; }

  private:
    LinkTiming timing_;
};

#endif
