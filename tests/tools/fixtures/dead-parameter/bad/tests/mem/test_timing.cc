#include "mem/timing.h"

void
configureRig(LinkTiming &t)
{
    t.round_trip = 300'000;
    // burst is read but set nowhere: a constant posing as a knob.
    if (t.burst == 4)
        t.recovery = 12;
}
