// Partitioned intermediate container: key-range sharded storage filled
// per-map-thread without cross-thread locking.
//
// The ArrayContainer gives the paper's unlocked writes but keeps one global
// record array, which forces the merge phase into a single round over
// everything (paper Fig. 6's serial barrier). This container crosses that
// with Phoenix++'s per-thread stripes AND sample sort's splitter discipline:
// storage is a (partition, thread) grid of byte stripes, a record appended
// by thread t lands in stripe (partition_of(key), t), and no two threads
// ever touch the same stripe. After the map phase, partition p's stripes
// hold exactly the records whose keys fall in p's key range — so the merge
// phase (merge/partitioned.hpp) runs P independent per-partition merges and
// concatenates the outputs in key order.
//
// Splitters come either from sample_splitters() (evenly spaced probes over
// an early batch, sample-sort style) or set_splitters() (caller-provided,
// e.g. replayed from a previous run). With no splitters the container
// degrades to 1 partition = per-thread ArrayContainer stripes.
#pragma once

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/cache_line.hpp"

namespace supmr::containers {

class PartitionedContainer {
 public:
  // Idempotent across map rounds (persistence, paper §III.C). `partitions`
  // and `threads` are upper bounds fixed at init; key_bytes is the memcmp
  // prefix used for partitioning and must not exceed record_bytes.
  void init(std::uint64_t record_bytes, std::uint64_t key_bytes,
            std::size_t partitions, std::size_t threads) {
    if (initialized_) {
      if (record_bytes_ != record_bytes || key_bytes_ != key_bytes ||
          partitions_ != partitions || threads_ != threads)
        throw std::logic_error(
            "PartitionedContainer::init: geometry (record/key bytes, "
            "partitions, threads) changed across rounds; reset() first");
      return;
    }
    assert(partitions >= 1 && threads >= 1 && key_bytes <= record_bytes);
    record_bytes_ = record_bytes;
    key_bytes_ = key_bytes;
    partitions_ = partitions;
    threads_ = threads;
    stripes_.assign(partitions_ * threads_, {});
    splitters_.clear();
    initialized_ = true;
  }

  bool initialized() const { return initialized_; }
  std::uint64_t record_bytes() const { return record_bytes_; }
  std::uint64_t key_bytes() const { return key_bytes_; }
  std::size_t partitions() const { return partitions_; }
  std::size_t threads() const { return threads_; }

  void reset() {
    stripes_.clear();
    splitters_.clear();
    record_bytes_ = key_bytes_ = 0;
    partitions_ = threads_ = 0;
    initialized_ = false;
  }

  // Installs explicit partition boundaries: splitters must be sorted,
  // strictly increasing key prefixes (key_bytes each, concatenated), at most
  // partitions - 1 of them. Must run between map waves (changes routing).
  void set_splitters(std::vector<char> splitter_keys) {
    assert(initialized_);
    assert(key_bytes_ > 0 && splitter_keys.size() % key_bytes_ == 0);
    assert(splitter_keys.size() / key_bytes_ <= partitions_ - 1);
    splitters_ = std::move(splitter_keys);
  }

  // Sample-sort-style splitter selection from an early record batch: probe
  // `sample` (contiguous records) evenly, sort the probed keys, cut at
  // evenly spaced quantiles, drop duplicate cuts. Deterministic — evenly
  // spaced probes, no RNG — so replayed runs partition identically.
  void sample_splitters(std::span<const char> sample) {
    assert(initialized_ && sample.size() % record_bytes_ == 0);
    splitters_.clear();
    const std::size_t n = sample.size() / record_bytes_;
    if (partitions_ < 2 || n < 2) return;

    const std::size_t want = std::min<std::size_t>(n, 32 * partitions_);
    const std::size_t step = std::max<std::size_t>(1, n / want);
    std::vector<const char*> probes;
    for (std::size_t i = step / 2; i < n; i += step)
      probes.push_back(sample.data() + i * record_bytes_);
    std::sort(probes.begin(), probes.end(),
              [this](const char* a, const char* b) {
                return std::memcmp(a, b, key_bytes_) < 0;
              });

    for (std::size_t p = 1; p < partitions_; ++p) {
      const char* cut = probes[p * probes.size() / partitions_];
      if (!splitters_.empty() &&
          std::memcmp(splitters_.data() + splitters_.size() - key_bytes_, cut,
                      key_bytes_) >= 0) {
        continue;  // duplicate quantile — this key range needs fewer cuts
      }
      splitters_.insert(splitters_.end(), cut, cut + key_bytes_);
    }
  }

  std::size_t num_splitters() const { return splitters_.size() / key_bytes_; }
  std::span<const char> splitter(std::size_t i) const {
    assert(i < num_splitters());
    return std::span<const char>(splitters_.data() + i * key_bytes_,
                                 key_bytes_);
  }

  // Partition for `key` (>= key_bytes readable): the number of splitters
  // <= key, found by binary search. Equal keys always share a partition, so
  // partition p's keys all sort strictly before partition p+1's.
  std::size_t partition_of(const char* key) const {
    std::size_t lo = 0, hi = num_splitters();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (std::memcmp(splitters_.data() + mid * key_bytes_, key, key_bytes_) <=
          0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Appends one record from mapper thread `thread`. Lock-free by layout:
  // (partition, thread) stripes are owned by exactly one thread, so
  // concurrent appends from distinct threads never alias. NOT safe to call
  // concurrently with set_splitters/sample_splitters (routing changes
  // between waves only).
  void append(std::size_t thread, std::span<const char> record) {
    assert(initialized_ && thread < threads_);
    assert(record.size() == record_bytes_);
    std::vector<char>& s = stripe_mut(partition_of(record.data()), thread);
    s.insert(s.end(), record.begin(), record.end());
  }

  // Raw stripe bytes for (partition, thread) — consumed by the merge phase.
  std::span<const char> stripe(std::size_t partition,
                               std::size_t thread) const {
    assert(partition < partitions_ && thread < threads_);
    const std::vector<char>& s = stripes_[partition * threads_ + thread].value;
    return std::span<const char>(s.data(), s.size());
  }
  std::span<char> stripe_span(std::size_t partition, std::size_t thread) {
    assert(partition < partitions_ && thread < threads_);
    std::vector<char>& s = stripes_[partition * threads_ + thread].value;
    return std::span<char>(s.data(), s.size());
  }

  std::uint64_t partition_bytes(std::size_t partition) const {
    assert(partition < partitions_);
    std::uint64_t bytes = 0;
    for (std::size_t t = 0; t < threads_; ++t)
      bytes += stripes_[partition * threads_ + t].value.size();
    return bytes;
  }
  std::uint64_t partition_records(std::size_t partition) const {
    return partition_bytes(partition) / record_bytes_;
  }
  std::uint64_t total_records() const {
    std::uint64_t bytes = 0;
    for (const auto& s : stripes_) bytes += s.value.size();
    return bytes / record_bytes_;
  }

 private:
  std::vector<char>& stripe_mut(std::size_t partition, std::size_t thread) {
    return stripes_[partition * threads_ + thread].value;
  }

  // Every append writes its stripe's vector header, so each header owns a
  // cache line.
  using Stripe = CacheAligned<std::vector<char>>;
  static_assert(alignof(Stripe) == kCacheLine && sizeof(Stripe) == kCacheLine,
                "stripes must not share cache lines");

  std::vector<Stripe> stripes_;  // [partition * threads_ + thread]
  std::vector<char> splitters_;  // num_splitters * key_bytes_
  std::uint64_t record_bytes_ = 0;
  std::uint64_t key_bytes_ = 0;
  std::size_t partitions_ = 0;
  std::size_t threads_ = 0;
  bool initialized_ = false;
};

}  // namespace supmr::containers
