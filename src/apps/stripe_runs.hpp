// Sorted stripe runs and the folding merge: the reduce and merge shared by
// the apps that fold string keys with a combiner (word count, pair count,
// doc term count, grep).
//
// Reduce: one task per map stripe turns that stripe's table into a run of
// key-prefix entries (merge/key_prefix.hpp) sorted in std::string key
// order. An entry points at its key where the container keeps it (arena or
// slot), so no key is copied and no table is rebuilt; the container must
// not change until merge() returns.
//
// Merge: the configured MergeMode kernel merges the runs, and the entries of
// one key (at most one per stripe) fold with Combiner::merge as they leave
// the kernel's loser trees. Each tree drains into its own uninitialised
// window array of the tree's size and writes it only up to its folded
// length, so the windows cost memory for the distinct keys alone. kPWay and
// kPartitioned cut every run at the same splitters (lower_bound and
// upper_bound), so a key's entries never straddle two windows; kPairwise
// merges into one array, which then drains through the same fold. One task
// per window then writes its folded entries into the (key, value) results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/job_config.hpp"
#include "merge/introsort.hpp"
#include "merge/key_prefix.hpp"
#include "merge/loser_tree.hpp"
#include "merge/pairwise.hpp"
#include "merge/partitioned.hpp"
#include "merge/pway.hpp"
#include "merge/stats.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::apps {

template <typename Container>
class StripeRuns {
 public:
  using value_type = typename Container::value_type;
  using Combiner = typename Container::combiner_type;
  using Entry = merge::KeyValueEntry<value_type>;
  using Result = std::pair<std::string, value_type>;

  // Forms one sorted run per non-empty stripe of `container`, one task per
  // stripe. Call after the last map wave.
  Status reduce(ThreadPool& pool, const Container& container) {
    runs_.clear();
    for (std::size_t s = 0; s < container.num_stripes(); ++s) {
      if (container.stripe_size(s) > 0) runs_.push_back(Run{s, {}});
    }
    std::vector<std::function<void(std::size_t)>> tasks;
    for (Run& run : runs_) {
      tasks.push_back([&container, &run](std::size_t) {
        // Allocated by the task, like the tables it reads: on a reused
        // worker its memory comes back from that worker's arena.
        run.entries = Entries::alloc(container.stripe_size(run.stripe));
        Entry* out = run.entries.data.get();
        container.for_each_in_stripe(
            run.stripe, [&out](std::string_view key, const value_type& value) {
              *out++ = merge::make_key_value_entry(key, value);
            });
        const std::span<Entry> entries = run.entries.span();
        merge::introsort(entries.begin(), entries.end(),
                         merge::KeyValueLess{});
      });
    }
    if (!pool.run_wave(tasks))
      return Status::Internal("reduce wave dropped: thread pool shut down");
    return Status::Ok();
  }

  // Merges the runs with plan.mode, folding equal keys, into `results`
  // (sorted by key, keys unique), then releases the runs.
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               std::vector<Result>& results, merge::MergeStats* stats) {
    // One window per loser tree, at its first output index: an array of the
    // tree's size, written only up to its folded length.
    std::mutex mu;
    std::vector<Window> windows;
    auto fold_drain = [&](std::uint64_t offset, auto& tree) {
      Entries entries = Entries::alloc(tree.remaining());
      entries.fold_from(tree);
      std::lock_guard<std::mutex> lock(mu);
      windows.push_back(Window{offset, std::move(entries)});
    };

    const merge::KeyValueLess cmp;
    merge::MergeStats local;
    if (plan.mode == core::MergeMode::kPairwise) {
      std::uint64_t total = 0;
      std::vector<std::span<Entry>> runs;
      for (const Run& run : runs_) {
        total += run.entries.size;
        runs.push_back(run.entries.span());
      }
      Entries merged = Entries::alloc(total);
      local = merge::pairwise_merge(pool, std::move(runs), merged.span(), cmp);
      // The merged array folds in place: a fold never writes ahead of the
      // entry it reads.
      merge::LoserTree<Entry, merge::KeyValueLess> tree({merged.span()}, cmp);
      merged.fold_from(tree);
      windows.push_back(Window{0, std::move(merged)});
    } else {
      std::vector<std::span<const Entry>> runs;
      for (const Run& run : runs_) runs.push_back(run.entries.span());
      local = plan.mode == core::MergeMode::kPartitioned
                  ? merge::partitioned_merge_runs_with<Entry>(
                        pool, std::move(runs), cmp, plan.partitions,
                        fold_drain)
                  : merge::parallel_pway_merge_with<Entry>(
                        pool, std::move(runs), cmp, 0, fold_drain);
    }
    // The folded entries point into the container, not into the runs: drop
    // the runs before the results take their memory.
    runs_.clear();

    std::sort(windows.begin(), windows.end(),
              [](const Window& a, const Window& b) {
                return a.offset < b.offset;
              });
    std::vector<std::size_t> first_result(windows.size() + 1, 0);
    for (std::size_t w = 0; w < windows.size(); ++w)
      first_result[w + 1] = first_result[w] + windows[w].entries.size;
    results.clear();
    results.resize(first_result.back());
    std::vector<std::function<void(std::size_t)>> tasks;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      tasks.push_back([&, w](std::size_t) {
        Result* r = results.data() + first_result[w];
        for (const Entry& e : windows[w].entries.span()) {
          // Keys of at most 8 bytes are whole in the prefix: copying them
          // from there spares a cache miss into the container.
          const std::uint64_t word = merge::prefix_key_word(e.prefix);
          r->first.assign(e.len <= merge::kKeyPrefixBytes
                              ? reinterpret_cast<const char*>(&word)
                              : e.key,
                          e.len);
          r->second = e.value;
          ++r;
        }
      });
    }
    if (!pool.run_wave(tasks))
      return Status::Internal("merge wave dropped: thread pool shut down");
    if (stats != nullptr) *stats = std::move(local);
    return Status::Ok();
  }

 private:
  // An owned, uninitialised entry array; `size` counts the entries in use.
  struct Entries {
    std::unique_ptr<Entry[]> data;
    std::size_t size = 0;

    static Entries alloc(std::size_t n) {
      return Entries{std::make_unique_for_overwrite<Entry[]>(n), n};
    }
    std::span<Entry> span() const { return {data.get(), size}; }

    // Drains `tree` into the array, folding the entries of one key into the
    // first with Combiner::merge; size becomes the folded count.
    template <typename Tree>
    void fold_from(Tree& tree) {
      Entry* const first = data.get();
      Entry* out = first;
      while (!tree.empty()) {
        const Entry& e = tree.pop();
        if (out != first && merge::same_key(out[-1], e))
          Combiner::merge(out[-1].value, e.value);
        else
          *out++ = e;
      }
      size = static_cast<std::size_t>(out - first);
    }
  };
  struct Run {
    std::size_t stripe;
    Entries entries;
  };
  struct Window {
    std::uint64_t offset;
    Entries entries;
  };

  std::vector<Run> runs_;
};

// "key\tvalue\n" per result, in results order: the canonical output of the
// apps above, whose results are sorted with unique keys, so merge order is
// canonical order. A key may hold tabs (doc term count's "<file_id>\t<word>")
// and a value never does, so a reader splits each line at its last tab.
template <typename V>
std::string canonical_counts(
    const std::vector<std::pair<std::string, V>>& results) {
  std::string out;
  for (const auto& [key, value] : results) {
    out += key;
    out += '\t';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

}  // namespace supmr::apps
