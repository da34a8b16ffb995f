// Partitioned merge: per-partition loser-tree merges over a key-range
// sharded intermediate set.
//
// The p-way merge (pway.hpp) removed the paper's round barrier but kept one
// global round over the persistent container: sample, binary-search every
// splitter in every run, then merge — the sampling/splitting prologue is
// serial and every worker's loser tree still spans ALL runs. This header
// moves the partitioning off the merge critical path entirely: when the
// intermediate data is already sharded into P key-range partitions (at map
// time via containers::PartitionedContainer, or by partition_values()), the
// merge phase degenerates into P fully independent merges that scale with
// hardware contexts, and the concatenation of partition outputs is globally
// sorted by construction. This is Phoenix++'s container sharding fused with
// sample sort's splitter discipline (paper §IV, SupMR Fig. 6).
//
// Invariant shared by everything here: splitters s_0 < s_1 < ... < s_{P-2}
// assign an element x to partition upper_bound(splitters, x) — equal keys
// always land in the same partition, so partition p's keys all sort strictly
// before partition p+1's.
#pragma once

#include <algorithm>
#include <chrono>
#include <span>
#include <vector>

#include "common/test_hooks.hpp"
#include "merge/introsort.hpp"
#include "merge/loser_tree.hpp"
#include "merge/stats.hpp"
#include "obs/macros.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::merge {

// Picks up to `partitions - 1` splitters by sampling `data` evenly (~32
// probes per partition), sorting the sample, and taking evenly spaced
// quantiles. Deterministic: evenly spaced probes, no RNG. Duplicate
// splitters are collapsed, so the result may be shorter than partitions - 1
// (duplicate-heavy inputs genuinely need fewer cuts).
template <typename T, typename Cmp>
std::vector<T> select_splitters(std::span<const T> data,
                                std::size_t partitions, Cmp cmp) {
  std::vector<T> splitters;
  if (partitions < 2 || data.size() < 2) return splitters;

  std::vector<T> sample;
  const std::size_t want = std::min<std::size_t>(data.size(), 32 * partitions);
  const std::size_t step = std::max<std::size_t>(1, data.size() / want);
  for (std::size_t i = step / 2; i < data.size(); i += step)
    sample.push_back(data[i]);
  std::sort(sample.begin(), sample.end(), cmp);

  for (std::size_t p = 1; p < partitions; ++p) {
    const T& cut = sample[p * sample.size() / partitions];
    if (splitters.empty() || cmp(splitters.back(), cut))
      splitters.push_back(cut);
  }
  return splitters;
}

namespace detail {

// Where key range `p` of `partitions` is routed. The identity, except under
// the "partition-routing" mutation hook (conformance harness smoke), which
// rotates every range one partition up, wrapping the top key range into
// partition 0. The wrap is what makes it detectable — a uniform or monotone
// shift would be erased by the per-stripe sorts downstream.
inline std::size_t routed_partition(std::size_t p, std::size_t partitions) {
  static const bool mutate_routing = test_mutation_enabled("partition-routing");
  return mutate_routing && partitions > 1 ? (p + 1) % partitions : p;
}

}  // namespace detail

// Partition index of `x` under `splitters` (sorted, strictly increasing):
// the number of splitters <= x. Equal keys map to the same partition.
template <typename T, typename Cmp>
std::size_t partition_of(const std::vector<T>& splitters, const T& x,
                         Cmp cmp) {
  return detail::routed_partition(
      static_cast<std::size_t>(
          std::upper_bound(splitters.begin(), splitters.end(), x, cmp) -
          splitters.begin()),
      splitters.size() + 1);
}

// Buckets `data` into splitters.size() + 1 partitions, preserving arrival
// order within each partition. The map-time path for values that are not in
// a PartitionedContainer yet (tests, benches, word-count style runs).
template <typename T, typename Cmp>
std::vector<std::vector<T>> partition_values(std::span<const T> data,
                                             const std::vector<T>& splitters,
                                             Cmp cmp) {
  std::vector<std::vector<T>> parts(splitters.size() + 1);
  for (const T& x : data) parts[partition_of(splitters, x, cmp)].push_back(x);
  return parts;
}

namespace detail {

inline void record_partition_stats(MergeStats& stats,
                                   const std::vector<std::uint64_t>& sizes) {
  stats.partitions = sizes.size();
  stats.partition_max_items = 0;
  stats.partition_min_items = sizes.empty() ? 0 : ~std::uint64_t{0};
  std::uint64_t total = 0;
  for (std::uint64_t s : sizes) {
    stats.partition_max_items = std::max(stats.partition_max_items, s);
    stats.partition_min_items = std::min(stats.partition_min_items, s);
    total += s;
  }
  if (sizes.empty()) stats.partition_min_items = 0;
  SUPMR_GAUGE_SET("merge.partitions", sizes.size());
  SUPMR_GAUGE_SET("merge.partition_max_items", stats.partition_max_items);
  SUPMR_GAUGE_SET("merge.partition_mean_items",
                  sizes.empty() ? 0 : total / sizes.size());
}

// One loser-tree merge per partition of sorted runs into that partition's
// disjoint output window (offsets are prefix sums of `sizes` — no
// synchronization). Returns the number of merge tasks.
template <typename T, typename Cmp>
std::size_t merge_partition_windows(
    ThreadPool& pool, std::vector<std::vector<std::span<const T>>>& partitions,
    const std::vector<std::uint64_t>& sizes, T* out, Cmp& cmp) {
  const std::size_t P = partitions.size();
  std::vector<std::uint64_t> offsets(P + 1, 0);
  for (std::size_t p = 0; p < P; ++p) offsets[p + 1] = offsets[p] + sizes[p];

  std::vector<std::function<void(std::size_t)>> merge_tasks;
  for (std::size_t p = 0; p < P; ++p) {
    if (sizes[p] == 0) continue;
    merge_tasks.push_back([&partitions, &offsets, out, &cmp, p](std::size_t) {
      SUPMR_TRACE_SCOPE_VAR(pspan, "merge", "merge.partition");
      SUPMR_TRACE_SET_ARG(pspan, "partition", p);
      SUPMR_TRACE_SET_ARG2(pspan, "items", offsets[p + 1] - offsets[p]);
      LoserTree<T, Cmp> tree(std::move(partitions[p]), cmp);
      tree.drain(out + offsets[p]);
    });
  }
  pool.run_wave_or_throw(merge_tasks);
  return merge_tasks.size();
}

inline void record_round(MergeStats& stats, std::size_t active_workers,
                         std::uint64_t items,
                         std::chrono::steady_clock::time_point t0) {
  MergeStats::Round round;
  round.active_workers = active_workers;
  round.items_moved = items;
  round.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats.rounds.push_back(round);
}

}  // namespace detail

// Merges key-range partitioned stripes into `out` in ONE parallel pass.
//
// `partitions[p]` holds partition p's stripes (one per producer thread; any
// count, any sizes, possibly empty). Stripes need NOT be sorted: a first
// wave introsorts every stripe in parallel (P*T-way parallelism), a second
// wave runs one loser-tree merge per partition into that partition's
// disjoint output window (offsets are prefix sums — no synchronization).
// Because partitions are key-ordered, `out` ends globally sorted.
template <typename T, typename Cmp>
MergeStats partitioned_merge(ThreadPool& pool,
                             std::vector<std::vector<std::span<T>>> partitions,
                             T* out, Cmp cmp) {
  MergeStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t P = partitions.size();
  if (P == 0) return stats;

  std::vector<std::uint64_t> sizes(P, 0);
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < P; ++p) {
    for (const auto& s : partitions[p]) sizes[p] += s.size();
    total += sizes[p];
  }
  detail::record_partition_stats(stats, sizes);
  if (total == 0) return stats;

  SUPMR_TRACE_SCOPE_VAR(span, "merge", "merge.partitioned");
  SUPMR_TRACE_SET_ARG(span, "partitions", P);
  SUPMR_TRACE_SET_ARG2(span, "items", total);
  SUPMR_COUNTER_ADD("merge.rounds", 1);
  SUPMR_COUNTER_ADD("merge.items_moved", total);

  // Wave 1: sort every stripe independently.
  std::vector<std::function<void(std::size_t)>> sort_tasks;
  for (auto& part : partitions) {
    for (auto& stripe : part) {
      if (stripe.size() < 2) continue;
      sort_tasks.push_back([stripe, &cmp](std::size_t) {
        introsort(stripe.begin(), stripe.end(), cmp);
      });
    }
  }
  pool.run_wave_or_throw(sort_tasks);

  // Wave 2: one loser-tree merge per partition into its output window.
  std::vector<std::vector<std::span<const T>>> runs(P);
  for (std::size_t p = 0; p < P; ++p)
    runs[p].assign(partitions[p].begin(), partitions[p].end());
  const std::size_t merges =
      detail::merge_partition_windows(pool, runs, sizes, out, cmp);
  detail::record_round(stats, std::min(merges, pool.size()), total, t0);
  return stats;
}

// Merges runs that are each already sorted under cmp into `out` by key
// range, in ONE parallel pass with no re-sort: splitters sampled evenly
// across all runs (~32 probes per partition) cut every run by binary search
// — upper_bound, so equal keys stay in one partition, as in partition_of —
// and each partition's slices are loser-tree merged into its own window.
// `num_partitions` defaults to the pool size.
template <typename T, typename Cmp>
MergeStats partitioned_merge_runs(ThreadPool& pool,
                                  std::vector<std::span<const T>> runs,
                                  T* out, Cmp cmp,
                                  std::size_t num_partitions = 0) {
  MergeStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  if (num_partitions == 0) num_partitions = pool.size();
  std::uint64_t total = 0;
  for (const auto& r : runs) total += r.size();

  std::vector<T> sample;
  const std::uint64_t step =
      std::max<std::uint64_t>(1, total / (32 * num_partitions));
  for (const auto& r : runs) {
    for (std::size_t i = step / 2; i < r.size(); i += step)
      sample.push_back(r[i]);
  }
  const std::vector<T> splitters = select_splitters(
      std::span<const T>(sample.data(), sample.size()), num_partitions, cmp);
  const std::size_t P = splitters.size() + 1;

  // Key range q of every run is [upper_bound(s_{q-1}), upper_bound(s_q)).
  std::vector<std::vector<std::span<const T>>> partitions(P);
  std::vector<std::uint64_t> sizes(P, 0);
  for (const auto& r : runs) {
    std::size_t begin = 0;
    for (std::size_t q = 0; q < P; ++q) {
      const std::size_t end =
          q + 1 < P ? static_cast<std::size_t>(
                          std::upper_bound(r.begin() + begin, r.end(),
                                           splitters[q], cmp) -
                          r.begin())
                    : r.size();
      if (end > begin) {
        const std::size_t p = detail::routed_partition(q, P);
        partitions[p].push_back(r.subspan(begin, end - begin));
        sizes[p] += end - begin;
      }
      begin = end;
    }
  }
  detail::record_partition_stats(stats, sizes);
  if (total == 0) return stats;

  SUPMR_TRACE_SCOPE_VAR(span, "merge", "merge.partitioned");
  SUPMR_TRACE_SET_ARG(span, "partitions", P);
  SUPMR_TRACE_SET_ARG2(span, "items", total);
  SUPMR_COUNTER_ADD("merge.rounds", 1);
  SUPMR_COUNTER_ADD("merge.items_moved", total);
  const std::size_t merges =
      detail::merge_partition_windows(pool, partitions, sizes, out, cmp);
  detail::record_round(stats, std::min(merges, pool.size()), total, t0);
  return stats;
}

}  // namespace supmr::merge
