// Cache-line size and a padding wrapper for per-thread state.
//
// Two threads that write different objects on the same cache line still
// serialize on that line (false sharing). Per-thread structures written on
// every emit or append — container stripes, queue indices — therefore each
// get a line of their own. 64 bytes is the line size on every x86-64 and
// most AArch64 parts; it is a plain constant rather than
// std::hardware_destructive_interference_size, whose value GCC may change
// between compiler versions and flags (-Winterference-size).
#pragma once

#include <cstddef>

namespace supmr {

inline constexpr std::size_t kCacheLine = 64;

// `T` padded out to whole cache lines and aligned to a line boundary, so
// adjacent elements of a std::vector<CacheAligned<T>> never share a line.
template <typename T>
struct alignas(kCacheLine) CacheAligned {
  T value;
};

}  // namespace supmr
