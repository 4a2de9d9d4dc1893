// Fixture: span-flow/good — every SD_SPAN_BEGIN reaches an END on all
// paths, including the branch-balanced if/else form a linear
// BEGIN/END count used to mis-flag.
#include "trace/trace.h"

namespace sd {

void
linearBalanced(int x)
{
    auto span = SD_SPAN_BEGIN("work", 0, 0, 0, 1);
    doWork(x);
    SD_SPAN_END(span, trace::Status::kOk);
}

int
earlyReturnClosesFirst(bool fail)
{
    auto span = SD_SPAN_BEGIN("work", 0, 0, 0, 1);
    if (fail) {
        SD_SPAN_END(span, trace::Status::kError);
        return -1;
    }
    SD_SPAN_END(span, trace::Status::kOk);
    return 0;
}

void
branchBalancedBothArms(bool degraded)
{
    auto span = SD_SPAN_BEGIN("work", 0, 0, 0, 1);
    if (degraded) {
        SD_SPAN_END(span, trace::Status::kDegraded);
    } else {
        SD_SPAN_END(span, trace::Status::kOk);
    }
}

void
loopScopedSpans(int n)
{
    for (int i = 0; i < n; ++i) {
        auto span = SD_SPAN_BEGIN("iter", 0, 0, 0, 1);
        doWork(i);
        SD_SPAN_END(span, trace::Status::kOk);
    }
}

} // namespace sd
