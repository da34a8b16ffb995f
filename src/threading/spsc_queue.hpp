// Bounded lock-free single-producer/single-consumer ring buffer.
//
// The ingest chunk pipeline is exactly an SPSC relationship: one ingest
// thread produces filled chunks, the map coordinator consumes them. The ring
// uses acquire/release on head/tail indices (Lamport queue); capacity is
// rounded up to a power of two so wrap-around is a mask. Padding separates
// producer- and consumer-owned cache lines to avoid false sharing.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/cache_line.hpp"

namespace supmr {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity) {
    assert(capacity > 0);
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side. Returns false when full.
  bool try_push(T value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) return false;
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns nullopt when empty.
  std::optional<T> try_pop() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return std::nullopt;
    T value = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return value;
  }

  // Observer contract: exact from the producer or consumer thread; from any
  // other thread it is a clamped snapshot in [0, capacity()]. The head load
  // must precede the tail load: head only grows, so a stale head can only
  // over-estimate the count — loading tail first (as this code originally
  // did) lets a concurrent pop advance head past the captured tail, and the
  // unsigned subtraction underflows to ~SIZE_MAX.
  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    assert(tail >= head && "SpscQueue::size(): torn head/tail observation");
    const std::size_t n = tail - head;
    return n <= mask_ + 1 ? n : mask_ + 1;
  }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<T> slots_;
  std::size_t mask_;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
};

}  // namespace supmr
