// Grep — multi-pattern occurrence counting over text.
//
// A filter-style workload (cf. Rhea [15] in the paper's related work): map
// scans each line for every pattern and emits (pattern, occurrences); the
// intermediate set is tiny (one key per pattern), the opposite extreme from
// sort. Included as a third application point on the "job phase complexity"
// spectrum Conclusion 1 describes. Reduce and merge are word count's sorted
// stripe runs and folding merge (apps/stripe_runs.hpp).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "apps/stripe_runs.hpp"
#include "containers/combiners.hpp"
#include "containers/hash_container.hpp"
#include "core/application.hpp"

namespace supmr::apps {

class GrepApp final : public core::Application {
 public:
  using Result = std::pair<std::string, std::uint64_t>;

  explicit GrepApp(std::vector<std::string> patterns)
      : patterns_(std::move(patterns)) {}

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return results_.size(); }
  std::string canonical_output() const override;

  core::ShardKind shard_kind() const override {
    return core::ShardKind::kSortedKeys;
  }

  // (pattern, total occurrences), sorted by pattern; patterns with zero
  // matches are absent.
  const std::vector<Result>& results() const { return results_; }

  // Count of input lines scanned (all rounds).
  std::uint64_t lines_scanned() const;

 private:
  using Container =
      containers::HashContainer<containers::SumCombiner<std::uint64_t>>;

  std::vector<std::string> patterns_;
  std::size_t num_mappers_ = 0;
  Container container_;
  std::vector<std::span<const char>> splits_;
  std::vector<std::uint64_t> lines_per_thread_;
  StripeRuns<Container> runs_;
  std::vector<Result> results_;
};

// Counts non-overlapping occurrences of `needle` in `haystack` (memmem-style
// scan). Exposed for tests.
std::uint64_t count_occurrences(std::string_view haystack,
                                std::string_view needle);

}  // namespace supmr::apps
