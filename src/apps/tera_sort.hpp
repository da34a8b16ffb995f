// TeraSort — the paper's merge-bound benchmark application.
//
// Records are fixed-width (100 bytes in the paper), "\r\n"-terminated, with
// a fixed-width binary-comparable key prefix. Sort's map is where the sort
// starts: each map task copies its records into the unlocked array
// container at claimed slots (the paper's §V.B: every thread writes its own
// key range with no synchronization), writes one 16-byte key-prefix entry
// per record (merge/key_prefix.hpp: the first 8 key bytes as a big-endian
// integer plus the record's stable address) and introsorts its slice. Map
// runs overlapped with ingest (Fig. 4), so run formation costs nothing
// while the disk is the bottleneck, and the merge phase is one merge of
// those sorted runs. Reduce checksums the keys through the entries
// (touching every key, as the paper's reduce does). Merge is where the
// runtimes differ:
//   * kPairwise    — iterative pairwise merging, log2(R) rounds (Fig. 1),
//   * kPWay        — a single parallel p-way merge (Fig. 6), or
//   * kPartitioned — key-range shards: the runs are cut at sampled
//     splitters and each partition is merged on its own. With
//     options.partitions > 0 map instead copies records into a
//     PartitionedContainer (splitters sampled from the first chunk), and the
//     merge phase sorts and merges each partition's stripes with no global
//     round at all (docs/merge.md).
// Nearly every comparison is one integer compare on cache-resident entries;
// only equal prefixes read the records. One parallel gather then
// materializes the permuted records.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/default_init_allocator.hpp"
#include "containers/array_container.hpp"
#include "containers/partitioned.hpp"
#include "core/application.hpp"
#include "merge/key_prefix.hpp"

namespace supmr::apps {

struct TeraSortOptions {
  std::uint32_t key_bytes = 10;
  std::uint32_t record_bytes = 100;  // includes the trailing "\r\n"
  bool validate_terminators = true;
  // > 0 enables the map-time partitioned shuffle with this many key-space
  // partitions (pair with MergeMode::kPartitioned; typically
  // JobConfig::merge_partitions()). 0 keeps the flat array container.
  std::size_t partitions = 0;
};

class TeraSortApp final : public core::Application {
 public:
  explicit TeraSortApp(TeraSortOptions options = {}) : options_(options) {}

  void init(std::size_t num_map_threads) override;
  Status prepare_round(const ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return tasks_.size(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  Status reduce(ThreadPool& pool, std::size_t num_partitions) override;
  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override;
  // Valid after merge, which releases the flat container once its records
  // are gathered into sorted_data().
  std::uint64_t result_count() const override {
    if (partitioned()) return pcontainer_.total_records();
    return options_.record_bytes == 0 ? 0
                                      : sorted_.size() / options_.record_bytes;
  }
  std::string canonical_output() const override;

  // canonical_output() normalizes equal-key ties by full record bytes, so
  // its global order is exactly full-record memcmp — the kFixedRecords
  // contract.
  core::ShardKind shard_kind() const override {
    return core::ShardKind::kFixedRecords;
  }

  // Sorted output (result_count() * record_bytes bytes), valid after merge.
  const UninitBytes& sorted_data() const { return sorted_; }

  // Sum over all keys' first 8 bytes — computed by reduce; order-invariant,
  // so it must match between chunked and unchunked runs.
  std::uint64_t key_checksum() const { return checksum_; }

  std::uint64_t malformed_records() const {
    return malformed_.load(std::memory_order_relaxed);
  }

  const TeraSortOptions& options() const { return options_; }

  // Map-time partitioned container (options.partitions > 0), read-only view
  // for tests and the partition property suite.
  bool partitioned() const { return options_.partitions > 0; }
  const containers::PartitionedContainer& partitioned_container() const {
    return pcontainer_;
  }

 private:
  struct RoundTask {
    const char* src = nullptr;  // first record's bytes in the chunk
    std::uint64_t num_records = 0;
    // Flat container only: the task's claimed records and its entry run.
    char* dst = nullptr;
    merge::KeyPrefixEntry* run = nullptr;
  };

  Status merge_partitioned(ThreadPool& pool, merge::MergeStats* stats);

  TeraSortOptions options_;
  std::size_t num_mappers_ = 0;
  containers::ArrayContainer container_;
  containers::PartitionedContainer pcontainer_;
  std::vector<RoundTask> tasks_;
  // Flat container: one entry block per round, and one sorted run per map
  // task pointing into it.
  std::vector<std::unique_ptr<merge::KeyPrefixEntry[]>> entry_blocks_;
  std::vector<std::span<merge::KeyPrefixEntry>> runs_;
  std::uint64_t checksum_ = 0;
  std::atomic<std::uint64_t> malformed_{0};
  UninitBytes sorted_;
};

}  // namespace supmr::apps
