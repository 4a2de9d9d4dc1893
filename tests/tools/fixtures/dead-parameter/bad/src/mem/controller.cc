#include "mem/timing.h"

void
configure(LinkTiming &t)
{
    t.recovery = 30; // a write, not a read
}

long
issueAt(const LinkTiming &t, DdrCommandType type, long now)
{
    if (type == DdrCommandType::kActivate)
        return now + t.round_trip;
    return type == DdrCommandType::kReadCas ? now + t.burst : now;
}
