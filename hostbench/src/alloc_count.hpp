// Heap allocations counted by the benchmark binary's replacement of the
// global operator new (alloc_count.cpp).
#pragma once

#include <cstdint>

namespace hostbench {

/// Allocations made through operator new since the process started.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace hostbench
