#ifndef SD_MEM_LINK_H
#define SD_MEM_LINK_H

#include "mem/timing.h"

// The owner passes each link its timing.
class Link
{
  public:
    explicit Link(const LinkTiming &timing) : timing_(timing) {}

    long roundTrip() const { return timing_.round_trip; }

  private:
    LinkTiming timing_;
};

#endif
