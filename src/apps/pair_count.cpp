#include "apps/pair_count.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "apps/tokenize.hpp"

namespace supmr::apps {

std::vector<std::span<const char>> split_lines(std::span<const char> text,
                                               std::size_t max_splits) {
  std::vector<std::span<const char>> splits;
  if (text.empty() || max_splits == 0) return splits;
  const std::size_t target = (text.size() + max_splits - 1) / max_splits;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = std::min(begin + target, text.size());
    // Cut only after a newline so no pair is torn between splits; the tail
    // split takes whatever remains (possibly without a trailing '\n').
    while (end < text.size() && text[end - 1] != '\n') ++end;
    splits.push_back(text.subspan(begin, end - begin));
    begin = end;
  }
  return splits;
}

void for_each_pair(std::span<const char> text,
                   const std::function<void(std::string_view)>& fn) {
  char key[2 * kMaxWord + 2];
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = pos;
    while (eol < text.size() && text[eol] != '\n') ++eol;
    std::size_t prev_len = 0;  // previous word, already lowercased in key[]
    tokenize_words(text.subspan(pos, eol - pos), [&](std::string_view word) {
      if (prev_len > 0) {
        key[prev_len] = ' ';
        std::copy(word.begin(), word.end(), key + prev_len + 1);
        fn(std::string_view(key, prev_len + 1 + word.size()));
      }
      std::copy(word.begin(), word.end(), key);
      prev_len = word.size();
    });
    pos = eol + 1;
  }
}

void PairCountApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  container_.reset();  // a reused app must not count the last job again
  container_.init(num_map_threads, /*capacity_hint=*/4096);
  results_.clear();
}

Status PairCountApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_lines(chunk.bytes(), num_mappers_);
  return Status::Ok();
}

void PairCountApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size() && thread_id < num_mappers_);
  for_each_pair(splits_[task], [&](std::string_view pair) {
    container_.emit(thread_id, pair, std::uint64_t{1});
  });
}

Status PairCountApp::reduce(ThreadPool& pool, std::size_t) {
  return runs_.reduce(pool, container_);
}

Status PairCountApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                           merge::MergeStats* stats) {
  return runs_.merge(pool, plan, results_, stats);
}

std::string PairCountApp::canonical_output() const {
  // The pair key contains a space but never a tab, keeping "key\tcount"
  // parseable by the downstream PMI join.
  return canonical_counts(results_);
}

}  // namespace supmr::apps
