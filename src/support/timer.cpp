#include "support/timer.hpp"

namespace sigrt::support::detail {

// Dynamic initialization runs before main.  A to_ns() reached from another
// translation unit's static initializer may still see the zero-initialized
// anchor, which calibrates over the time since boot instead — coarse only
// if the TSC and the monotonic clock started far apart.
const CycleAnchor kCycleAnchor{now_ns(), CycleClock::now()};

}  // namespace sigrt::support::detail
