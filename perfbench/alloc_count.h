// Heap-allocation counters fed by the replaced global operator new in
// alloc_count.cpp. Only this benchmark binary links the replacement, so the
// simulator libraries are measured exactly as users build them.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocSnapshot {
  std::uint64_t count = 0;  // successful operator new calls
  std::uint64_t bytes = 0;  // bytes requested by them
};

/// Totals since process start (all threads).
AllocSnapshot alloc_snapshot();

inline AllocSnapshot operator-(const AllocSnapshot& a, const AllocSnapshot& b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

}  // namespace perfbench
