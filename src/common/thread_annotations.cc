#include "common/thread_annotations.h"

#include "common/log.h"

namespace sd {

std::uint64_t
SingleOwnerChecker::firstSelfId()
{
    self_id_ = static_cast<std::uint64_t>(
                   std::hash<std::thread::id>{}(std::this_thread::get_id())) |
               1;
    return self_id_;
}

void
SingleOwnerChecker::violation(std::uint64_t owner, std::uint64_t self)
{
    SD_PANIC("single-owner contract violated: component owned by "
             "thread %016llx touched from thread %016llx (construct "
             "and drive each simulated system on one thread, or call "
             "release() to hand it over)",
             static_cast<unsigned long long>(owner),
             static_cast<unsigned long long>(self));
}

} // namespace sd
