// Spilling hash container: external aggregation for intermediate sets
// larger than RAM.
//
// The paper's hash container assumes the (word, count) table fits in memory
// — true for 155 GB of English on a 384 GB box, false for high-cardinality
// keys (URLs, n-grams) or smaller machines. This container keeps the
// lock-free striped emission path, but when the stripes' footprint crosses
// the budget the coordinator spills them as ONE sorted, per-key-combined
// run (length-prefixed (key, count) records), and the final reduce streams
// a k-way combining merge over all runs plus the live stripes — the same
// single-round merge argument as §IV applied to aggregation.
//
// Concurrency contract mirrors the runtime: emit() runs on map threads
// (distinct stripes); maybe_spill() and merge_reduce() run on the
// coordinator between/after map waves.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cache_line.hpp"
#include "common/status.hpp"
#include "containers/arena_hash_map.hpp"

namespace supmr::containers {

class SpillingHashContainer {
 public:
  struct Options {
    std::uint64_t memory_budget_bytes = 64 << 20;
    std::string spill_dir = "/tmp";
    std::uint64_t merge_read_bytes = 1 << 20;
  };

  SpillingHashContainer() = default;
  ~SpillingHashContainer();

  SpillingHashContainer(const SpillingHashContainer&) = delete;
  SpillingHashContainer& operator=(const SpillingHashContainer&) = delete;

  // Idempotent (persistent across rounds, paper §III.C).
  void init(std::size_t num_map_threads, Options options);

  // Map-side: lock-free fold into the calling thread's stripe.
  void emit(std::size_t thread_id, std::string_view key,
            std::uint64_t count) {
    stripes_[thread_id].value.find_or_insert(key, 0) += count;
  }

  // Coordinator, between map waves: spills all stripes as one sorted run if
  // the footprint exceeds the budget.
  Status maybe_spill();
  // Unconditional spill (exposed for tests).
  Status spill();

  // Streams the final (key, total) pairs in key order, combining across
  // spilled runs and live stripes. Call once, after the last map wave.
  Status merge_reduce(
      const std::function<void(std::string_view, std::uint64_t)>& fn);

  std::size_t runs_spilled() const { return spill_paths_.size(); }
  std::uint64_t memory_bytes() const;
  bool initialized() const { return initialized_; }

 private:
  // Sorted unique (key, count) snapshot of all stripes; clears them.
  std::vector<std::pair<std::string, std::uint64_t>> drain_stripes();

  Options options_;
  // One cache-line-aligned map per map thread (every emit writes it).
  std::vector<CacheAligned<ArenaHashMap<std::uint64_t>>> stripes_;
  std::vector<std::string> spill_paths_;
  bool initialized_ = false;
};

}  // namespace supmr::containers
