// Word count — the paper's ingest-bound benchmark application.
//
// Map tokenizes text into lowercase words and folds counts into the hash
// container (combine-on-insert keeps the intermediate set at vocabulary
// size, not input size). Reduce sorts each per-thread stripe into a run of
// key-prefix entries; merge merges those runs with the configured merge
// algorithm and folds each word's per-stripe counts as they leave it
// (apps/stripe_runs.hpp). The "more complicated map phase — checking a
// container before inserting a key" (§VI.B) is exactly the find_or_insert
// in emit, and is why word count overlaps more compute with ingest than sort
// does.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/stripe_runs.hpp"
#include "containers/combiners.hpp"
#include "containers/combining.hpp"
#include "core/application.hpp"

namespace supmr::apps {

class WordCountApp final : public core::Application {
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

  // Final output: (word, count) sorted by word.
  const std::vector<Result>& results() const { return results_; }

  // Total words mapped (across all rounds); conserved into counts.
  std::uint64_t words_mapped() const;

 private:
  using Container =
      containers::SwitchedContainer<containers::SumCombiner<std::uint64_t>>;

  std::size_t num_mappers_ = 0;
  Container container_;
  std::vector<std::span<const char>> splits_;
  std::vector<std::uint64_t> words_per_thread_;
  StripeRuns<Container> runs_;
  std::vector<Result> results_;
};

// Splits `text` into at most `max_splits` pieces on whitespace boundaries
// (never mid-word). Exposed for tests.
std::vector<std::span<const char>> split_text(std::span<const char> text,
                                              std::size_t max_splits);

// Tokenizes `text`, invoking fn(word) per lowercase word. Exposed for tests.
void for_each_word(std::span<const char> text,
                   const std::function<void(std::string_view)>& fn);

}  // namespace supmr::apps
