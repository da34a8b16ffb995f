#include "apps/inverted_index.hpp"

#include <algorithm>
#include <cassert>

#include "apps/tokenize.hpp"
#include "merge/introsort.hpp"
#include "merge/pway.hpp"

namespace supmr::apps {

void InvertedIndexApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  container_.reset();  // a reused app must not index the last job again
  container_.init(num_map_threads, /*capacity_hint=*/4096);
  index_.clear();
  partitions_.clear();
}

Status InvertedIndexApp::prepare_round(const ingest::IngestChunk& chunk) {
  if (chunk.files.empty()) {
    return Status::InvalidArgument(
        "inverted index requires intra-file chunking (MultiFileSource): "
        "chunk carries no file spans");
  }
  // Distribute whole files round-robin over at most num_mappers_ tasks.
  tasks_.assign(std::min(num_mappers_, chunk.files.size()), {});
  std::size_t next = 0;
  for (const ingest::FileSpan& span : chunk.files) {
    tasks_[next].push_back(FileTask{
        chunk.bytes().subspan(span.offset_in_chunk, span.length),
        static_cast<std::uint32_t>(span.file_index)});
    next = (next + 1) % tasks_.size();
  }
  return Status::Ok();
}

void InvertedIndexApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < tasks_.size());
  for (const FileTask& file : tasks_[task]) {
    tokenize_words(file.text, [&](std::string_view word) {
      container_.emit(thread_id, word, file.file_id);
    });
  }
}

Status InvertedIndexApp::reduce(ThreadPool& pool,
                                std::size_t num_partitions) {
  partitions_.assign(num_partitions, {});
  std::vector<std::function<void(std::size_t)>> tasks;
  for (std::size_t p = 0; p < num_partitions; ++p) {
    tasks.push_back([this, p, num_partitions](std::size_t) {
      auto pairs = container_.reduce_partition(p, num_partitions);
      partitions_[p].reserve(pairs.size());
      for (auto& [word, files] : pairs) {
        std::sort(files.begin(), files.end());
        files.erase(std::unique(files.begin(), files.end()), files.end());
        partitions_[p].push_back(Posting{std::move(word), std::move(files)});
      }
    });
  }
  if (!pool.run_wave(tasks))
    return Status::Internal("reduce wave dropped: thread pool shut down");
  return Status::Ok();
}

Status InvertedIndexApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                               merge::MergeStats* stats) {
  auto by_word = [](const Posting& a, const Posting& b) {
    return a.word < b.word;
  };
  std::vector<std::function<void(std::size_t)>> sort_tasks;
  for (auto& part : partitions_) {
    sort_tasks.push_back([&part, &by_word](std::size_t) {
      merge::introsort(part.begin(), part.end(), by_word);
    });
  }
  if (!pool.run_wave(sort_tasks))
    return Status::Internal("merge sort wave dropped: thread pool shut down");

  std::uint64_t total = 0;
  for (const auto& part : partitions_) total += part.size();
  index_.resize(total);

  merge::MergeStats local;
  if (plan.mode != core::MergeMode::kPairwise) {
    // kPWay and kPartitioned both take the single-round p-way kernel; under
    // kPartitioned the plan's partition count sets the key-space split (the
    // hash-sharded reduce partitions carry no key ordering to exploit).
    std::vector<std::span<const Posting>> runs;
    for (const auto& part : partitions_)
      runs.push_back(std::span<const Posting>(part.data(), part.size()));
    const std::size_t p = plan.mode == core::MergeMode::kPartitioned
                              ? plan.partitions
                              : 0;  // 0 = pool-sized
    local = merge::parallel_pway_merge(pool, std::move(runs), index_.data(),
                                       by_word, p);
  } else {
    // Pairwise mode: sequential k-way concatenation + sort is acceptable for
    // the dictionary-sized output; keep the baseline honest by re-sorting.
    std::size_t offset = 0;
    for (auto& part : partitions_) {
      std::move(part.begin(), part.end(), index_.begin() + offset);
      offset += part.size();
    }
    merge::introsort(index_.begin(), index_.end(), by_word);
  }
  partitions_.clear();
  if (stats != nullptr) *stats = std::move(local);
  return Status::Ok();
}

std::string InvertedIndexApp::canonical_output() const {
  std::string out;
  for (const auto& posting : index_) {
    out += posting.word;
    out += '\t';
    for (std::size_t i = 0; i < posting.files.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(posting.files[i]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace supmr::apps
