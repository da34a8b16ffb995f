// Iterative pairwise parallel merge — the *baseline* merge the original
// runtime uses (paper §IV, Fig. 1's step curve).
//
// Round r merges pairs of sorted runs in parallel, one worker per pair:
// R/2 workers, then R/4, ... then 1. Every round re-scans all N elements,
// so total work is N*log2(R) moves and utilization decays geometrically —
// precisely the inefficiency SupMR's single-round p-way merge removes.
#pragma once

#include <algorithm>
#include <chrono>
#include <span>
#include <vector>

#include "merge/stats.hpp"
#include "obs/macros.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::merge {

namespace detail {

template <typename T, typename Cmp>
void merge_two(std::span<const T> a, std::span<const T> b, T* out, Cmp& cmp) {
  std::size_t i = 0, j = 0, o = 0;
  while (i < a.size() && j < b.size())
    out[o++] = cmp(b[j], a[i]) ? b[j++] : a[i++];
  while (i < a.size()) out[o++] = a[i++];
  while (j < b.size()) out[o++] = b[j++];
}

}  // namespace detail

// Merges `runs` (each sorted under cmp, with buffer.size() elements in
// total) into sorted order in `buffer`. The runs either lie back to back in
// `buffer` or live outside it: the first round only reads them. Ping-pongs
// between `buffer` and a scratch allocation; the sorted result always ends
// in `buffer`. Returns stats with one entry per round.
template <typename T, typename Cmp>
MergeStats pairwise_merge(ThreadPool& pool, std::vector<std::span<T>> runs,
                          std::span<T> buffer, Cmp cmp) {
  MergeStats stats;
  if (runs.size() == 1 && runs[0].data() != buffer.data())
    std::copy(runs[0].begin(), runs[0].end(), buffer.begin());
  if (runs.size() <= 1) return stats;

  std::vector<T> scratch(buffer.size());
  std::span<T> src = buffer;
  std::span<T> dst(scratch.data(), scratch.size());
  bool result_in_scratch = false;

  while (runs.size() > 1) {
    SUPMR_TRACE_SCOPE_VAR(span, "merge", "merge.pairwise_round");
    SUPMR_TRACE_SET_ARG(span, "runs", runs.size());
    SUPMR_TRACE_SET_ARG2(span, "items", buffer.size());
    SUPMR_COUNTER_ADD("merge.rounds", 1);
    SUPMR_COUNTER_ADD("merge.items_moved", buffer.size());
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::span<T>> next;
    next.reserve((runs.size() + 1) / 2);

    // Compute each pair's destination offset within dst (same layout).
    std::vector<std::function<void(std::size_t)>> tasks;
    std::size_t offset = 0;
    for (std::size_t p = 0; p + 1 < runs.size(); p += 2) {
      std::span<T> a = runs[p];
      std::span<T> b = runs[p + 1];
      T* out = dst.data() + offset;
      next.push_back(std::span<T>(out, a.size() + b.size()));
      tasks.push_back([a, b, out, &cmp](std::size_t) {
        detail::merge_two<T, Cmp>(std::span<const T>(a.data(), a.size()),
                                  std::span<const T>(b.data(), b.size()), out,
                                  cmp);
      });
      offset += a.size() + b.size();
    }
    if (runs.size() % 2 == 1) {
      // Odd run out: copy through so the next round's layout stays packed.
      std::span<T> last = runs.back();
      T* out = dst.data() + offset;
      next.push_back(std::span<T>(out, last.size()));
      tasks.push_back([last, out](std::size_t) {
        std::copy(last.begin(), last.end(), out);
      });
    }

    pool.run_wave_or_throw(tasks);

    MergeStats::Round round;
    round.active_workers = tasks.size();
    round.items_moved = buffer.size();
    round.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stats.rounds.push_back(round);

    runs = std::move(next);
    std::swap(src, dst);
    result_in_scratch = !result_in_scratch;
  }

  if (result_in_scratch)
    std::copy(scratch.begin(), scratch.end(), buffer.begin());
  return stats;
}

}  // namespace supmr::merge
