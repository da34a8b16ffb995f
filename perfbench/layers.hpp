// Per-layer timing from outside the program.
//
// The benchmark never edits SupMR to measure it. Each layer is timed at a
// public seam the program already has:
//   storage          TracedDevice  forwards storage::Device
//   ingest           TracedSource  forwards ingest::IngestSource
//   map, merge       TracedApp     forwards core::Application (every virtual)
//   core, cluster,   spans the benchmark opens around MapReduceJob::run,
//   runtime          cluster::run_cluster and JobManager::submit/wait.
// The wrappers forward every call unchanged, so a traced job computes the
// same bytes as an untraced one; fidelity_test.cpp checks both halves of
// that claim.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/application.hpp"
#include "ingest/source.hpp"
#include "storage/device.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

// One timed interval. Names and layers are string literals.
struct Span {
  const char* name = "";
  const char* layer = "";
  double t0 = 0.0;  // seconds since the log's epoch
  double t1 = 0.0;
  std::int64_t parent = -1;  // index of the causing span; -1 for a job root
  std::uint64_t job = 0;
  std::uint32_t node = 0;  // cluster node + 1; 0 outside cluster runs
  std::uint32_t tid = 0;   // small per-thread number
  std::uint64_t arg = 0;   // bytes, or the map round
  std::uint64_t arg2 = 0;  // the map task, or the wave width
};

// Spans of one benchmark run, kept in memory and written out at the end.
class SpanLog {
 public:
  double now() const;
  std::uint64_t next_job() { return ++jobs_; }

  // Opens a span and returns its index; close() stamps its end.
  std::int64_t open(const char* name, const char* layer, std::uint64_t job,
                    std::uint32_t node, std::int64_t parent);
  void close(std::int64_t id, std::uint64_t arg = 0, std::uint64_t arg2 = 0);

  std::vector<Span> snapshot() const;

  // Chrome-trace JSON ({"traceEvents":[...]}), the format the program's own
  // --trace-out writes, so Perfetto opens both. `other` (name, value) pairs
  // go to the format's "otherData" object.
  supmr::Status write_chrome_trace(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& other) const;

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> jobs_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Where a wrapper's spans go: the log, the job they belong to, and the span
// that caused them when nothing encloses them on the calling thread.
struct Scope {
  SpanLog* log = nullptr;
  std::uint64_t job = 0;
  std::uint32_t node = 0;
  std::int64_t root = -1;
};

class TracedDevice final : public supmr::storage::Device {
 public:
  TracedDevice(std::shared_ptr<const supmr::storage::Device> inner,
               Scope scope)
      : inner_(std::move(inner)), scope_(scope) {}

  supmr::StatusOr<std::size_t> read_at(std::uint64_t offset,
                                       std::span<char> out) const override;
  std::uint64_t size() const override { return inner_->size(); }
  std::string_view name() const override { return inner_->name(); }
  // Views are forwarded too: a timing wrapper must not change which ingest
  // path the program takes.
  bool supports_views() const override { return inner_->supports_views(); }
  std::span<const char> view_at(std::uint64_t offset,
                                std::size_t length) const override {
    return inner_->view_at(offset, length);
  }
  supmr::storage::DeviceModel model() const override {
    return inner_->model();
  }

 private:
  std::shared_ptr<const supmr::storage::Device> inner_;
  Scope scope_;
};

class TracedSource final : public supmr::ingest::IngestSource {
 public:
  TracedSource(const supmr::ingest::IngestSource& inner, Scope scope)
      : inner_(inner), scope_(scope) {}

  supmr::StatusOr<std::vector<supmr::ingest::ChunkExtent>> plan()
      const override;
  supmr::Status read_chunk(const supmr::ingest::ChunkExtent& extent,
                           supmr::ingest::IngestChunk& out) const override;
  std::uint64_t total_bytes() const override { return inner_.total_bytes(); }
  supmr::storage::DeviceModel model() const override {
    return inner_.model();
  }

 private:
  const supmr::ingest::IngestSource& inner_;
  Scope scope_;
};

// Forwards every core::Application virtual to `inner`. A cluster node app
// (nodes != nullptr) numbers itself at init() and opens a node span that
// closes when the node's canonical output has been serialised.
class TracedApp final : public supmr::core::Application {
 public:
  TracedApp(std::unique_ptr<supmr::core::Application> inner, Scope scope,
            std::atomic<std::uint32_t>* nodes = nullptr)
      : inner_(std::move(inner)), scope_(scope), nodes_(nodes) {}

  void init(std::size_t num_map_threads) override;
  supmr::Status prepare_round(
      const supmr::ingest::IngestChunk& chunk) override;
  std::size_t round_tasks() const override { return inner_->round_tasks(); }
  void map_task(std::size_t task, std::size_t thread_id) override;
  supmr::Status reduce(supmr::ThreadPool& pool,
                       std::size_t num_partitions) override;
  supmr::Status merge(supmr::ThreadPool& pool,
                      const supmr::core::MergePlan& plan,
                      supmr::merge::MergeStats* stats) override;
  std::uint64_t result_count() const override {
    return inner_->result_count();
  }
  supmr::core::CombinerKind combiner_kind() const override {
    return inner_->combiner_kind();
  }
  supmr::core::ShardKind shard_kind() const override {
    return inner_->shard_kind();
  }
  supmr::Status use_container(supmr::core::ContainerMode mode) override {
    return inner_->use_container(mode);
  }
  supmr::core::CombineStats combine_stats() const override {
    return inner_->combine_stats();
  }
  std::string canonical_output() const override;

 private:
  std::unique_ptr<supmr::core::Application> inner_;
  Scope scope_;
  std::atomic<std::uint32_t>* nodes_;
  std::int64_t node_span_ = -1;
  std::atomic<std::uint64_t> round_{0};
};

// Per-layer figures of one job, from its spans. In a cluster job the
// storage/ingest/map/merge figures are those of the node that finished its
// local job last (the critical path), and the cluster.* figures are added.
Metrics job_layers(const std::vector<Span>& spans, std::uint64_t job);

// Critical-path self time per verdict candidate (ingest, map, merge,
// shuffle, runtime) of one job's layer figures.
Metrics verdict_candidates(const Metrics& layers);

}  // namespace perfbench
