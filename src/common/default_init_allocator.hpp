// Allocator whose value-less construct() default-initializes, so
// vector::resize(n) of a trivial type leaves the new elements unwritten.
//
// For buffers that a later parallel pass overwrites completely (TeraSort's
// sorted output), the usual zero-fill is a serial pass over memory that is
// about to be rewritten, and that one thread takes every page fault. With
// this allocator the parallel writers touch the pages first.
#pragma once

#include <memory>
#include <utility>
#include <vector>

namespace supmr {

template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

// A contiguous byte buffer whose resize() does not zero-fill.
using UninitBytes = std::vector<char, DefaultInitAllocator<char>>;

}  // namespace supmr
