// Pair count — adjacent-word co-occurrence, the first stage of the PMI
// chain (docs/graphs.md).
//
// Map tokenizes each line and folds every adjacent pair "w1 w2" into the
// hash container, exactly the word-count shape but with bigram keys; reduce
// and merge are word count's sorted stripe runs and folding merge
// (apps/stripe_runs.hpp). Splits
// are cut at LINE boundaries, not word boundaries: a pair never spans a
// newline, so cutting between lines keeps the emitted multiset independent
// of both chunking (LineFormat already guarantees chunk edges sit on
// newlines) and the split fan-out inside a chunk.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/stripe_runs.hpp"
#include "containers/combiners.hpp"
#include "containers/combining.hpp"
#include "core/application.hpp"

namespace supmr::apps {

class PairCountApp final : public core::Application {
 public:
  using Result = std::pair<std::string, std::uint64_t>;

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return splits_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return results_.size(); }
  std::string canonical_output() const override;

  core::CombinerKind combiner_kind() const override {
    return core::CombinerKind::kSum;
  }
  core::ShardKind shard_kind() const override {
    return core::ShardKind::kSortedKeys;
  }
  Status use_container(core::ContainerMode mode) override {
    container_.select(mode);
    return Status::Ok();
  }
  core::CombineStats combine_stats() const override {
    return container_.stats();
  }

  // Final output: ("w1 w2", count) sorted by the pair key.
  const std::vector<Result>& results() const { return results_; }

 private:
  using Container =
      containers::SwitchedContainer<containers::SumCombiner<std::uint64_t>>;

  std::size_t num_mappers_ = 0;
  Container container_;
  std::vector<std::span<const char>> splits_;
  StripeRuns<Container> runs_;
  std::vector<Result> results_;
};

// Splits `text` into at most `max_splits` pieces, cutting only after '\n'.
// Exposed for tests.
std::vector<std::span<const char>> split_lines(std::span<const char> text,
                                               std::size_t max_splits);

// Invokes fn("w1 w2") for every adjacent word pair within each line of
// `text` (pairs never cross newlines). Exposed for tests.
void for_each_pair(std::span<const char> text,
                   const std::function<void(std::string_view)>& fn);

}  // namespace supmr::apps
