#include "apps/tera_sort.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <memory>

#include "merge/introsort.hpp"
#include "merge/key_prefix.hpp"
#include "merge/pairwise.hpp"
#include "merge/partitioned.hpp"
#include "merge/pway.hpp"

namespace supmr::apps {

namespace {

// Copies the `n` records that `order` points at into `out`, in order. `out`
// does not zero-fill on resize, so the gather's workers first-touch its
// pages instead of one serial pass.
Status gather(ThreadPool& pool, const merge::KeyPrefixEntry* order,
              std::uint64_t n, std::uint64_t record_bytes, UninitBytes& out) {
  out.resize(n * record_bytes);
  if (!parallel_for(pool, n, [&](std::size_t first, std::size_t last,
                                 std::size_t) {
        for (std::size_t i = first; i < last; ++i)
          std::memcpy(out.data() + i * record_bytes, order[i].rec,
                      record_bytes);
      }))
    return Status::Internal("merge wave dropped: thread pool shut down");
  return Status::Ok();
}

}  // namespace

void TeraSortApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  if (partitioned()) {
    pcontainer_.reset();  // a reused app must not sort the last job again
    pcontainer_.init(options_.record_bytes, options_.key_bytes,
                     options_.partitions, num_map_threads);
  } else {
    container_.reset();
    container_.init(options_.record_bytes);
  }
  entry_blocks_.clear();
  runs_.clear();
  checksum_ = 0;
  malformed_ = 0;
  sorted_.clear();
}

Status TeraSortApp::prepare_round(const ingest::IngestChunk& chunk) {
  const std::uint64_t rb = options_.record_bytes;
  const std::span<const char> bytes = chunk.bytes();
  if (bytes.size() % rb != 0) {
    return Status::InvalidArgument(
        "chunk size " + std::to_string(bytes.size()) +
        " is not a whole number of " + std::to_string(rb) + "-byte records");
  }
  const std::uint64_t records = bytes.size() / rb;
  char* dst = nullptr;
  merge::KeyPrefixEntry* entries = nullptr;
  if (partitioned()) {
    // Splitters come from the first non-empty chunk (sample-sort style);
    // later chunks route through the same cuts, so partitions stay
    // key-coherent across the whole ingest stream.
    if (records > 0 && pcontainer_.num_splitters() == 0) {
      pcontainer_.sample_splitters(bytes);
    }
  } else if (records > 0) {
    // One uninitialised block of records and one of entries for the round;
    // each mapper then fills a disjoint slice of both.
    dst = container_.mutable_record(container_.claim(records));
    entry_blocks_.push_back(
        std::make_unique_for_overwrite<merge::KeyPrefixEntry[]>(records));
    entries = entry_blocks_.back().get();
  }
  tasks_.clear();
  if (records == 0) return Status::Ok();
  const std::uint64_t per =
      (records + num_mappers_ - 1) / num_mappers_;
  for (std::uint64_t first = 0; first < records; first += per) {
    const std::uint64_t n = std::min(per, records - first);
    RoundTask task{bytes.data() + first * rb, n};
    if (!partitioned()) {
      task.dst = dst + first * rb;
      task.run = entries + first;
      runs_.emplace_back(task.run, n);
    }
    tasks_.push_back(task);
  }
  return Status::Ok();
}

void TeraSortApp::map_task(std::size_t task, std::size_t thread_id) {
  // Flat container: the claimed slot range and entry run are the isolation.
  // Partitioned container: the (partition, thread_id) stripe is — wave
  // scheduling guarantees distinct thread_ids within a wave
  // (application.hpp).
  assert(task < tasks_.size());
  const RoundTask& t = tasks_[task];
  const std::uint64_t rb = options_.record_bytes;
  std::uint64_t bad = 0;
  for (std::uint64_t r = 0; r < t.num_records; ++r) {
    const char* rec = t.src + r * rb;
    if (options_.validate_terminators &&
        (rec[rb - 2] != '\r' || rec[rb - 1] != '\n')) {
      ++bad;
    }
    if (partitioned()) {
      pcontainer_.append(thread_id, std::span<const char>(rec, rb));
    } else {
      char* copy = t.dst + r * rb;
      std::memcpy(copy, rec, rb);
      t.run[r] = merge::make_entry(copy, options_.key_bytes);
    }
  }
  // Run formation: the sort's first round, overlapped with ingest.
  if (!partitioned()) {
    merge::introsort(t.run, t.run + t.num_records,
                     merge::KeyPrefixLess{options_.key_bytes});
  }
  if (bad > 0) malformed_.fetch_add(bad, std::memory_order_relaxed);
}

Status TeraSortApp::reduce(ThreadPool& pool, std::size_t) {
  // Sort's reduce touches every key once (identity coalescing with unique
  // keys): we fold the first 8 key bytes of every record into an
  // order-invariant checksum, partitioned across the pool.
  if (partitioned()) {
    // One task per key-space partition; each walks its own stripes.
    const std::size_t P = pcontainer_.partitions();
    const std::uint64_t rb = options_.record_bytes;
    const std::size_t key8 = std::min<std::size_t>(8, options_.key_bytes);
    std::vector<std::uint64_t> partial(P, 0);
    std::vector<std::function<void(std::size_t)>> tasks;
    for (std::size_t p = 0; p < P; ++p) {
      tasks.push_back([this, &partial, p, rb, key8](std::size_t) {
        std::uint64_t sum = 0;
        for (std::size_t t = 0; t < pcontainer_.threads(); ++t) {
          const std::span<const char> s = pcontainer_.stripe(p, t);
          for (std::size_t off = 0; off + rb <= s.size(); off += rb) {
            std::uint64_t k = 0;
            std::memcpy(&k, s.data() + off, key8);
            sum += k;
          }
        }
        partial[p] = sum;
      });
    }
    if (!pool.run_wave(tasks))
      return Status::Internal("reduce wave dropped: thread pool shut down");
    checksum_ = 0;
    for (auto s : partial) checksum_ += s;
    return Status::Ok();
  }

  // Flat container: every key's first 8 bytes are already in its map-time
  // entry, so the checksum reads the 16-byte entries, not the records.
  std::vector<std::uint64_t> partial(runs_.size(), 0);
  if (!parallel_for(pool, runs_.size(), [&](std::size_t first,
                                            std::size_t last, std::size_t) {
        for (std::size_t r = first; r < last; ++r) {
          std::uint64_t sum = 0;
          for (const merge::KeyPrefixEntry& e : runs_[r])
            sum += merge::prefix_key_word(e.prefix);
          partial[r] = sum;
        }
      }))
    return Status::Internal("reduce wave dropped: thread pool shut down");
  checksum_ = 0;
  for (auto s : partial) checksum_ += s;
  return Status::Ok();
}

Status TeraSortApp::merge_partitioned(ThreadPool& pool,
                                      merge::MergeStats* stats) {
  // The shuffle already happened at map time: partition p's stripes hold
  // exactly p's key range. Merge = one entry-sort + loser-tree merge per
  // partition (merge/partitioned.hpp waves), then one materialization pass —
  // no global round, no scratch copy-back.
  const std::uint64_t rb = options_.record_bytes;
  const std::uint32_t kb = options_.key_bytes;
  const std::size_t P = pcontainer_.partitions();
  const std::uint64_t n = pcontainer_.total_records();

  // One entry run per non-empty (partition, thread) stripe, back to back in
  // one array; partitioned_merge sorts each run in place.
  auto entries = std::make_unique_for_overwrite<merge::KeyPrefixEntry[]>(n);
  std::vector<std::vector<std::span<merge::KeyPrefixEntry>>> partitions(P);
  std::vector<std::function<void(std::size_t)>> fill_tasks;
  std::uint64_t offset = 0;
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t t = 0; t < pcontainer_.threads(); ++t) {
      const std::span<const char> s = pcontainer_.stripe(p, t);
      if (s.empty()) continue;
      const std::span<merge::KeyPrefixEntry> run(entries.get() + offset,
                                                 s.size() / rb);
      offset += run.size();
      partitions[p].push_back(run);
      fill_tasks.push_back([s, run, rb, kb](std::size_t) {
        merge::fill_entries(s.data(), run.size(), rb, kb, run.data());
      });
    }
  }
  if (!pool.run_wave(fill_tasks))
    return Status::Internal("merge wave dropped: thread pool shut down");

  auto order = std::make_unique_for_overwrite<merge::KeyPrefixEntry[]>(n);
  merge::MergeStats local = merge::partitioned_merge(
      pool, std::move(partitions), order.get(), merge::KeyPrefixLess{kb});
  SUPMR_RETURN_IF_ERROR(gather(pool, order.get(), n, rb, sorted_));
  if (stats != nullptr) *stats = std::move(local);
  return Status::Ok();
}

Status TeraSortApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                          merge::MergeStats* stats) {
  if (partitioned()) return merge_partitioned(pool, stats);

  // Map already sorted one entry run per task; what is left is one merge
  // of those runs into `order`, then the gather.
  const std::uint64_t n = container_.size();
  const merge::KeyPrefixLess cmp{options_.key_bytes};
  auto order = std::make_unique_for_overwrite<merge::KeyPrefixEntry[]>(n);
  merge::MergeStats local;
  if (plan.mode == core::MergeMode::kPairwise) {
    local = merge::pairwise_merge(
        pool, runs_, std::span<merge::KeyPrefixEntry>(order.get(), n), cmp);
  } else {
    std::vector<std::span<const merge::KeyPrefixEntry>> runs(runs_.begin(),
                                                             runs_.end());
    local = plan.mode == core::MergeMode::kPartitioned
                ? merge::partitioned_merge_runs(pool, std::move(runs),
                                                order.get(), cmp,
                                                plan.partitions)
                : merge::parallel_pway_merge(pool, std::move(runs),
                                             order.get(), cmp);
  }
  SUPMR_RETURN_IF_ERROR(
      gather(pool, order.get(), n, options_.record_bytes, sorted_));
  // The records now live in sorted_ alone: drop the runs and their blocks.
  runs_.clear();
  entry_blocks_.clear();
  container_.reset();
  if (stats != nullptr) *stats = std::move(local);
  return Status::Ok();
}

std::string TeraSortApp::canonical_output() const {
  // The sort contract fixes the KEY order but leaves ties between
  // equal-key records unspecified (stability is not promised). Normalize
  // only within each run of adjacent equal keys — sorting those records by
  // their full bytes — so two correct runs encode identically while a
  // globally mis-ordered output (wrong comparator, wrong routing) still
  // differs: a misplaced record changes which records are adjacent.
  const std::size_t rb = options_.record_bytes;
  const std::size_t kb = options_.key_bytes;
  std::string out;
  if (rb == 0) return out;
  const std::size_t n = sorted_.size() / rb;
  out.reserve(n * rb);
  std::vector<const char*> run;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && std::memcmp(sorted_.data() + i * rb,
                                sorted_.data() + j * rb, kb) == 0) {
      ++j;
    }
    run.clear();
    for (std::size_t r = i; r < j; ++r) run.push_back(sorted_.data() + r * rb);
    std::sort(run.begin(), run.end(), [rb](const char* a, const char* b) {
      return std::memcmp(a, b, rb) < 0;
    });
    for (const char* rec : run) out.append(rec, rb);
    i = j;
  }
  return out;
}

}  // namespace supmr::apps
