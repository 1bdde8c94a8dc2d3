// Counts operator-new calls process-wide.  The benchmark replaces the global
// operator new (alloc_count.cpp) so steady-state allocations per op or per
// request can be read as a counter delta.
#pragma once

#include <cstdint>

namespace pb::alloc {

/// operator-new calls since process start (relaxed; read after a barrier or
/// join for an exact figure).
std::uint64_t count() noexcept;

}  // namespace pb::alloc
