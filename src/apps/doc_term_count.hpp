// Per-document term counts — a root stage of the TF-IDF chain
// (docs/graphs.md).
//
// The multi-file sibling of word count: map tokenizes every file of the
// coalesced chunk and folds ("<file_id>\t<word>", 1) into the hash
// container; reduce and merge are word count's sorted stripe runs and
// folding merge (apps/stripe_runs.hpp), so their output is the per-document
// term frequency table. Like the inverted index it REQUIRES intra-file chunking
// (MultiFileSource): file identity comes from the chunk's FileSpans and
// must survive coalescing. Canonical lines are "<file_id>\t<word>\t<count>"
// in composite-key order.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/stripe_runs.hpp"
#include "containers/combiners.hpp"
#include "containers/combining.hpp"
#include "core/application.hpp"

namespace supmr::apps {

class DocTermCountApp final : public core::Application {
 public:
  using Result = std::pair<std::string, std::uint64_t>;

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return tasks_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  std::uint64_t result_count() const override { return results_.size(); }
  std::string canonical_output() const override;

  core::CombinerKind combiner_kind() const override {
    return core::CombinerKind::kSum;
  }
  Status use_container(core::ContainerMode mode) override {
    container_.select(mode);
    return Status::Ok();
  }
  core::CombineStats combine_stats() const override {
    return container_.stats();
  }

  // ("<file_id>\t<word>", count) sorted by the composite key.
  const std::vector<Result>& results() const { return results_; }

 private:
  struct FileTask {
    std::span<const char> text;
    std::uint32_t file_id = 0;
  };

  using Container =
      containers::SwitchedContainer<containers::SumCombiner<std::uint64_t>>;

  std::size_t num_mappers_ = 0;
  Container container_;
  std::vector<std::vector<FileTask>> tasks_;
  StripeRuns<Container> runs_;
  std::vector<Result> results_;
};

}  // namespace supmr::apps
