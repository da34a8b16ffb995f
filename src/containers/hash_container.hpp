// Hash container: Phoenix++'s default intermediate store.
//
// One ArenaHashMap per map thread — emission takes no locks (the map thread
// writes only its own stripe). After the map phase a stripe is read either
// whole (for_each_in_stripe: the sorted stripe runs of apps/stripe_runs.hpp)
// or by hash partition across all stripes (reduce_partition), so reducers
// also proceed without locks.
//
// The container is *persistent* across map rounds (paper §III.C): init()
// allocates the stripes once; subsequent rounds' mapper waves keep emitting
// into the same stripes. reset() exists for tests that demonstrate what goes
// wrong when a runtime re-initializes per round.
//
// Best for workloads that fold a large input into a small intermediate set
// (word count). For sort — unique keys, intermediate set == input set — use
// ArrayContainer; the paper explains why a hash container is pathological
// there (§V.B).
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cache_line.hpp"
#include "containers/arena_hash_map.hpp"

namespace supmr::containers {

template <typename Combiner>
class HashContainer {
 public:
  using combiner_type = Combiner;
  using value_type = typename Combiner::value_type;

  // Allocates one stripe per map thread. Idempotent: later calls (new map
  // rounds in the chunk pipeline) are no-ops — this is the persistence the
  // SupMR runtime requires.
  //
  // A thread-count change across rounds is a hard error, not an assert: a
  // runtime that re-leases a different thread count mid-job (JobManager)
  // would otherwise index out-of-bounds stripes silently in release builds.
  void init(std::size_t num_map_threads, std::size_t capacity_hint = 1024) {
    if (initialized_) {
      if (stripes_.size() != num_map_threads)
        throw std::logic_error(
            "HashContainer::init: map thread count changed across rounds (" +
            std::to_string(stripes_.size()) + " -> " +
            std::to_string(num_map_threads) + "); reset() first");
      return;
    }
    stripes_.clear();
    stripes_.reserve(num_map_threads);
    for (std::size_t i = 0; i < num_map_threads; ++i)
      stripes_.push_back(Stripe{ArenaHashMap<value_type>(capacity_hint)});
    initialized_ = true;
  }

  bool initialized() const { return initialized_; }

  // Drops all state (the non-persistent behaviour of the original runtime;
  // tests use it to show pair loss across rounds).
  void reset() {
    stripes_.clear();
    initialized_ = false;
  }

  // Map-side emission; `thread_id` must be the calling map thread's index.
  void emit(std::size_t thread_id, std::string_view key,
            const auto& mapped_value) {
    assert(thread_id < stripes_.size());
    value_type& acc =
        stripes_[thread_id].value.find_or_insert(key, Combiner::identity());
    Combiner::combine(acc, mapped_value);
  }

  std::size_t num_stripes() const { return stripes_.size(); }

  // Total entries across stripes (same key in two stripes counts twice —
  // the reduce phase is what de-duplicates).
  std::size_t raw_entries() const {
    std::size_t n = 0;
    for (const auto& s : stripes_) n += s.value.size();
    return n;
  }

  std::size_t stripe_size(std::size_t stripe) const {
    return stripes_[stripe].value.size();
  }

  // Calls fn(key, accumulator) for every entry of one stripe, in slot order.
  // The key views point into the stripe's arena and stay valid until the
  // next emit, reset() or destruction.
  template <typename Fn>
  void for_each_in_stripe(std::size_t stripe, Fn&& fn) const {
    stripes_[stripe].value.for_each(fn);
  }

  // Reduce-side: merges partition `part` of `num_parts` across all stripes
  // into owned (key, accumulator) pairs. Each partition is disjoint, so
  // concurrent calls with distinct `part` are safe.
  std::vector<std::pair<std::string, value_type>> reduce_partition(
      std::size_t part, std::size_t num_parts) const {
    ArenaHashMap<value_type> merged(256);
    for (const auto& stripe : stripes_) {
      stripe.value.for_each_in_partition(
          part, num_parts, [&](std::string_view key, const value_type& v) {
            value_type& acc = merged.find_or_insert(key, Combiner::identity());
            Combiner::merge(acc, v);
          });
    }
    std::vector<std::pair<std::string, value_type>> out;
    out.reserve(merged.size());
    merged.for_each([&](std::string_view key, const value_type& v) {
      out.emplace_back(std::string(key), v);
    });
    return out;
  }

 private:
  // One map per map thread, each on its own cache lines: every emit writes
  // its map's size and arena bookkeeping.
  using Stripe = CacheAligned<ArenaHashMap<value_type>>;
  static_assert(alignof(Stripe) == kCacheLine &&
                    sizeof(Stripe) % kCacheLine == 0,
                "stripes must not share cache lines");

  std::vector<Stripe> stripes_;
  bool initialized_ = false;
};

}  // namespace supmr::containers
