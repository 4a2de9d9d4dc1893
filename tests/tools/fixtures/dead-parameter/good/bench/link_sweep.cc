#include "mem/timing.h"

// Every timing field is a knob some bench sweeps.
void
sweepLink(LinkTiming &t, long step)
{
    t.round_trip = 300'000 * step;
    t.burst = 4 + step;
}
