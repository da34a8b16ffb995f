#include "apps/grep.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace supmr::apps {

std::uint64_t count_occurrences(std::string_view haystack,
                                std::string_view needle) {
  if (needle.empty() || haystack.size() < needle.size()) return 0;
  std::uint64_t count = 0;
  std::size_t pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string_view::npos) {
    ++count;
    pos += needle.size();  // non-overlapping
  }
  return count;
}

namespace {

// Splits text into at most `max_splits` pieces at line boundaries, so a line
// is never scanned by two mappers.
std::vector<std::span<const char>> split_lines(std::span<const char> text,
                                               std::size_t max_splits) {
  std::vector<std::span<const char>> splits;
  if (text.empty() || max_splits == 0) return splits;
  const std::size_t target = (text.size() + max_splits - 1) / max_splits;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = std::min(begin + target, text.size());
    while (end < text.size() && text[end - 1] != '\n') ++end;
    splits.push_back(text.subspan(begin, end - begin));
    begin = end;
  }
  return splits;
}

}  // namespace

void GrepApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  container_.reset();  // a reused app must not count the last job again
  container_.init(num_map_threads, /*capacity_hint=*/64);
  lines_per_thread_.assign(num_map_threads, 0);
  results_.clear();
}

Status GrepApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_lines(chunk.bytes(), num_mappers_);
  return Status::Ok();
}

void GrepApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size());
  std::span<const char> split = splits_[task];
  std::uint64_t lines = 0;
  std::size_t begin = 0;
  while (begin < split.size()) {
    const void* nl = std::memchr(split.data() + begin, '\n',
                                 split.size() - begin);
    const std::size_t end =
        nl ? static_cast<std::size_t>(static_cast<const char*>(nl) -
                                      split.data())
           : split.size();
    const std::string_view line(split.data() + begin, end - begin);
    for (const std::string& pattern : patterns_) {
      const std::uint64_t hits = count_occurrences(line, pattern);
      if (hits > 0) container_.emit(thread_id, pattern, hits);
    }
    ++lines;
    begin = end + 1;
  }
  lines_per_thread_[thread_id] += lines;
}

Status GrepApp::reduce(ThreadPool& pool, std::size_t) {
  return runs_.reduce(pool, container_);
}

Status GrepApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                      merge::MergeStats* stats) {
  return runs_.merge(pool, plan, results_, stats);
}

std::uint64_t GrepApp::lines_scanned() const {
  std::uint64_t n = 0;
  for (auto l : lines_per_thread_) n += l;
  return n;
}

std::string GrepApp::canonical_output() const {
  return canonical_counts(results_);
}

}  // namespace supmr::apps
