#include "mem/timing.h"

long
issueAt(const LinkTiming &t, DdrCommandType type, long now)
{
    if (type == DdrCommandType::kActivate)
        return now + t.round_trip;
    return type == DdrCommandType::kReadCas ? now + t.burst : now;
}
