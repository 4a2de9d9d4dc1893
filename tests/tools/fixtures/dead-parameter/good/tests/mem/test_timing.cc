#include "mem/timing.h"

// Every timing field is a knob some rig turns.
void
configureRig(LinkTiming &t)
{
    t.round_trip = 300'000;
    t.burst = 8;
}
