#include "merge/external_sorter.hpp"

#include <cassert>
#include <chrono>
#include <cstring>

#include "fault/retrying_device.hpp"
#include "merge/partitioned.hpp"
#include "merge/sample_sort.hpp"
#include "obs/macros.hpp"
#include "storage/file_device.hpp"

namespace supmr::merge {

namespace {

// A sequential cursor over one sorted run: either a spill device (positional
// reads in slabs through the retrying seam) or the in-memory residue.
class RunCursor {
 public:
  Status open_device(std::shared_ptr<const storage::Device> device,
                     std::uint32_t record_bytes, std::uint64_t slab_bytes,
                     const fault::RetryPolicy& retry) {
    rb_ = record_bytes;
    device_ = std::move(device);
    if (retry.enabled()) {
      device_ = std::make_shared<fault::RetryingDevice>(device_, retry);
    }
    // Slab holds whole records.
    const std::uint64_t records =
        std::max<std::uint64_t>(1, slab_bytes / record_bytes);
    slab_.resize(records * record_bytes);
    return refill();
  }

  void open_memory(std::vector<char> data, std::uint32_t record_bytes) {
    rb_ = record_bytes;
    slab_ = std::move(data);
    slab_len_ = slab_.size();
    pos_ = 0;
    eof_ = true;
  }

  bool exhausted() const { return pos_ >= slab_len_ && eof_; }
  const char* head() const { return slab_.data() + pos_; }

  Status advance() {
    pos_ += rb_;
    if (pos_ >= slab_len_ && !eof_) return refill();
    return Status::Ok();
  }

 private:
  Status refill() {
    if (device_ == nullptr) {
      eof_ = true;
      return Status::Ok();
    }
    const std::uint64_t remaining = device_->size() - offset_;
    const std::uint64_t want =
        std::min<std::uint64_t>(slab_.size(), remaining);
    if (want == 0) {
      slab_len_ = 0;
      pos_ = 0;
      eof_ = true;
      return Status::Ok();
    }
    auto n = device_->read_at(offset_,
                              std::span<char>(slab_.data(), want));
    if (!n.ok()) return n.status();
    if (*n == 0 || *n % rb_ != 0) {
      return Status::IoError("spill file truncated mid-record");
    }
    offset_ += *n;
    slab_len_ = *n;
    pos_ = 0;
    if (offset_ >= device_->size()) eof_ = true;
    return Status::Ok();
  }

  std::shared_ptr<const storage::Device> device_;
  std::uint64_t offset_ = 0;
  std::vector<char> slab_;
  std::size_t slab_len_ = 0;
  std::size_t pos_ = 0;
  std::uint32_t rb_ = 0;
  bool eof_ = false;
};

// Loser tree over run cursors (streaming variant of merge::LoserTree).
class CursorLoserTree {
 public:
  CursorLoserTree(std::vector<RunCursor>& runs, std::uint32_t key_bytes)
      : runs_(runs), kb_(key_bytes) {
    k_ = 1;
    while (k_ < runs_.size()) k_ <<= 1;
    tree_.assign(k_, kInvalid);
    build();
  }

  bool empty() const {
    return winner_ == kInvalid || runs_[winner_].exhausted();
  }
  std::size_t winner() const { return winner_; }

  Status pop_advance() {
    SUPMR_RETURN_IF_ERROR(runs_[winner_].advance());
    replay(winner_);
    return Status::Ok();
  }

 private:
  static constexpr std::size_t kInvalid = ~std::size_t{0};

  bool alive(std::size_t r) const {
    return r < runs_.size() && !runs_[r].exhausted();
  }
  bool beats(std::size_t a, std::size_t b) const {
    if (!alive(a)) return false;
    if (!alive(b)) return true;
    return std::memcmp(runs_[a].head(), runs_[b].head(), kb_) <= 0;
  }

  void build() {
    std::vector<std::size_t> up(k_);
    for (std::size_t i = 0; i < k_; ++i) up[i] = i;
    std::size_t level = k_;
    while (level > 1) {
      for (std::size_t i = 0; i < level; i += 2) {
        const std::size_t a = up[i], b = up[i + 1];
        const bool a_wins = beats(a, b);
        tree_[(level + i) / 2] = a_wins ? b : a;
        up[i / 2] = a_wins ? a : b;
      }
      level /= 2;
    }
    winner_ = up[0];
    if (!alive(winner_)) winner_ = kInvalid;
  }

  void replay(std::size_t run) {
    if (k_ == 1) {  // single run: no internal nodes to replay
      winner_ = alive(0) ? 0 : kInvalid;
      return;
    }
    std::size_t node = (k_ + run) / 2;
    std::size_t candidate = run;
    while (true) {
      const std::size_t other = tree_[node];
      if (other != kInvalid && beats(other, candidate)) {
        tree_[node] = candidate;
        candidate = other;
      }
      if (node == 1) break;
      node /= 2;
    }
    winner_ = alive(candidate) ? candidate : kInvalid;
    if (winner_ == kInvalid) {
      // The candidate died; rebuild to find any remaining run (rare: only
      // at run exhaustion boundaries).
      build();
    }
  }

  std::vector<RunCursor>& runs_;
  std::uint32_t kb_;
  std::size_t k_ = 0;
  std::vector<std::size_t> tree_;
  std::size_t winner_ = kInvalid;
};

}  // namespace

ExternalSorter::ExternalSorter(ThreadPool& pool,
                               ExternalSorterOptions options)
    : pool_(pool), options_(options) {
  assert(options_.record_bytes > 0 &&
         options_.key_bytes <= options_.record_bytes);
  // Budget must hold at least a handful of records.
  options_.memory_budget_bytes = std::max<std::uint64_t>(
      options_.memory_budget_bytes, 16ULL * options_.record_bytes);
  buffer_.reserve(options_.memory_budget_bytes);
  spills_.assign(std::max<std::size_t>(1, options_.partitions), {});
}

ExternalSorter::~ExternalSorter() {
  for (const auto& part : spills_)
    for (const auto& path : part) std::remove(path.c_str());
}

Status ExternalSorter::add(std::span<const char> records) {
  if (finished_) return Status::FailedPrecondition("finish() already called");
  if (records.size() % options_.record_bytes != 0) {
    return Status::InvalidArgument("add() requires whole records");
  }
  std::size_t offset = 0;
  while (offset < records.size()) {
    const std::uint64_t room = options_.memory_budget_bytes - buffer_.size();
    const std::uint64_t take_records =
        std::min<std::uint64_t>(room / options_.record_bytes,
                                (records.size() - offset) /
                                    options_.record_bytes);
    const std::uint64_t take = take_records * options_.record_bytes;
    buffer_.insert(buffer_.end(), records.begin() + offset,
                   records.begin() + offset + take);
    buffered_records_ += take_records;
    records_added_ += take_records;
    offset += take;
    if (buffer_.size() + options_.record_bytes >
        options_.memory_budget_bytes) {
      SUPMR_RETURN_IF_ERROR(spill_buffer());
    }
  }
  return Status::Ok();
}

void ExternalSorter::sort_buffer(std::vector<KeyPrefixEntry>& entries) {
  entries.resize(buffered_records_);
  fill_entries(buffer_.data(), buffered_records_, options_.record_bytes,
               options_.key_bytes, entries.data());
  parallel_sample_sort(pool_,
                       std::span<KeyPrefixEntry>(entries.data(),
                                                 entries.size()),
                       KeyPrefixLess{options_.key_bytes});
}

// Cuts partitions() - 1 splitter keys from the current (sorted) buffer at
// evenly spaced quantiles, dropping duplicate cuts — the external twin of
// PartitionedContainer::sample_splitters. Runs once, on the first spill, so
// every later spill splits at identical keys.
void ExternalSorter::select_splitters(
    const std::vector<KeyPrefixEntry>& entries) {
  const std::uint32_t kb = options_.key_bytes;
  const std::size_t P = spills_.size();
  splitters_.clear();
  if (P < 2 || buffered_records_ < 2) return;
  for (std::size_t p = 1; p < P; ++p) {
    const char* cut = entries[p * buffered_records_ / P].rec;
    if (!splitters_.empty() &&
        std::memcmp(splitters_.data() + splitters_.size() - kb, cut, kb) >=
            0) {
      continue;  // duplicate quantile — this key range needs fewer cuts
    }
    splitters_.insert(splitters_.end(), cut, cut + kb);
  }
}

// Number of splitters <= key: equal keys share a partition, so partition
// p's keys all sort strictly before partition p+1's.
std::size_t ExternalSorter::partition_of(const char* key) const {
  const std::uint32_t kb = options_.key_bytes;
  std::size_t lo = 0, hi = splitters_.size() / kb;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (std::memcmp(splitters_.data() + mid * kb, key, kb) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status ExternalSorter::spill_buffer() {
  if (buffered_records_ == 0) return Status::Ok();
  SUPMR_TRACE_SCOPE_VAR(span, "merge", "merge.spill");
  SUPMR_TRACE_SET_ARG(span, "records", buffered_records_);
  SUPMR_TRACE_SET_ARG2(span, "bytes", buffer_.size());
  SUPMR_COUNTER_ADD("merge.spills", 1);
  SUPMR_COUNTER_ADD("merge.spill_bytes", buffer_.size());
  std::vector<KeyPrefixEntry> entries;
  sort_buffer(entries);

  const std::uint32_t rb = options_.record_bytes;
  const std::size_t P = spills_.size();
  if (P > 1 && splitters_.empty() && runs_spilled() == 0) {
    select_splitters(entries);
  }

  // The sorted entries split into contiguous per-partition ranges;
  // each non-empty range becomes one spill run for its partition.
  std::vector<std::uint64_t> bounds(P + 1, buffered_records_);
  bounds[0] = 0;
  std::size_t cur = 0;
  for (std::uint64_t i = 0; i < buffered_records_; ++i) {
    const std::size_t p = partition_of(entries[i].rec);
    while (cur < p) bounds[++cur] = i;
  }
  while (cur + 1 < P) bounds[++cur] = buffered_records_;

  std::vector<char> slab(std::max<std::uint64_t>(rb, 1 << 20) / rb * rb);
  for (std::size_t p = 0; p < P; ++p) {
    const std::uint64_t first = bounds[p], last = bounds[p + 1];
    if (first == last) continue;
    char name[80];
    std::snprintf(name, sizeof(name), "/supmr_spill_%p_%zu_p%zu.run",
                  static_cast<void*>(this), runs_spilled(), p);
    const std::string path = options_.spill_dir + name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return Status::IoError("cannot create spill " + path);

    // Write permuted records through a staging slab.
    std::size_t fill = 0;
    for (std::uint64_t i = first; i < last; ++i) {
      std::memcpy(slab.data() + fill, entries[i].rec, rb);
      fill += rb;
      if (fill == slab.size() || i + 1 == last) {
        if (std::fwrite(slab.data(), 1, fill, f) != fill) {
          std::fclose(f);
          return Status::IoError("short write to spill " + path);
        }
        fill = 0;
      }
    }
    if (std::fclose(f) != 0) return Status::IoError("spill close failed");
    spills_[p].push_back(path);
  }
  buffer_.clear();
  buffered_records_ = 0;
  return Status::Ok();
}

StatusOr<MergeStats> ExternalSorter::finish(const Sink& sink) {
  if (finished_) return Status::FailedPrecondition("finish() already called");
  finished_ = true;
  MergeStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t rb = options_.record_bytes;

  // In-memory residue becomes one pre-sorted run.
  std::vector<char> residue;
  if (buffered_records_ > 0) {
    std::vector<KeyPrefixEntry> entries;
    sort_buffer(entries);
    residue.resize(buffered_records_ * rb);
    for (std::uint64_t i = 0; i < buffered_records_; ++i)
      std::memcpy(residue.data() + i * rb, entries[i].rec, rb);
    buffer_.clear();
    buffered_records_ = 0;
  }

  // Residue slices per partition: the residue is sorted, so each
  // partition's records are one contiguous range.
  const std::size_t P = spills_.size();
  const std::uint64_t res_records = residue.size() / rb;
  std::vector<std::uint64_t> res_bounds(P + 1, res_records);
  res_bounds[0] = 0;
  {
    std::size_t cur = 0;
    for (std::uint64_t i = 0; i < res_records; ++i) {
      const std::size_t p = partition_of(residue.data() + i * rb);
      while (cur < p) res_bounds[++cur] = i;
    }
    while (cur + 1 < P) res_bounds[++cur] = res_records;
  }

  if (runs_spilled() == 0 && res_records == 0) return stats;

  SUPMR_TRACE_SCOPE_VAR(span, "merge", "merge.external_merge");
  SUPMR_TRACE_SET_ARG(span, "runs", runs_spilled() + (res_records ? 1 : 0));
  SUPMR_TRACE_SET_ARG2(span, "records", records_added_);

  // One loser-tree merge per partition, in partition (= key) order, so the
  // concatenated sink stream is globally sorted. Sequential across
  // partitions: the sink contract is ordered delivery, and per-partition
  // trees keep peak memory at merge_read_bytes * runs-in-one-partition.
  std::vector<char> out(std::max<std::uint64_t>(rb, 1 << 20) / rb * rb);
  std::uint64_t emitted = 0;
  std::vector<std::uint64_t> per_part(P, 0);
  for (std::size_t p = 0; p < P; ++p) {
    const std::uint64_t res_n = res_bounds[p + 1] - res_bounds[p];
    std::vector<RunCursor> runs(spills_[p].size() + (res_n ? 1 : 0));
    for (std::size_t r = 0; r < spills_[p].size(); ++r) {
      std::shared_ptr<const storage::Device> dev;
      if (options_.open_spill) {
        SUPMR_ASSIGN_OR_RETURN(dev, options_.open_spill(spills_[p][r]));
      } else {
        SUPMR_ASSIGN_OR_RETURN(auto file,
                               storage::FileDevice::open(spills_[p][r]));
        dev = std::move(file);
      }
      SUPMR_RETURN_IF_ERROR(runs[r].open_device(
          std::move(dev), rb, options_.merge_read_bytes, options_.retry));
    }
    if (res_n > 0) {
      runs.back().open_memory(
          std::vector<char>(residue.begin() + res_bounds[p] * rb,
                            residue.begin() + res_bounds[p + 1] * rb),
          rb);
    }
    if (runs.empty()) continue;

    SUPMR_TRACE_SCOPE_VAR(pspan, "merge", "merge.partition");
    SUPMR_TRACE_SET_ARG(pspan, "partition", p);
    SUPMR_TRACE_SET_ARG2(pspan, "runs", runs.size());
    CursorLoserTree tree(runs, options_.key_bytes);
    std::size_t fill = 0;
    while (!tree.empty()) {
      std::memcpy(out.data() + fill, runs[tree.winner()].head(), rb);
      fill += rb;
      ++emitted;
      ++per_part[p];
      SUPMR_RETURN_IF_ERROR(tree.pop_advance());
      if (fill == out.size() || tree.empty()) {
        SUPMR_RETURN_IF_ERROR(
            sink(std::span<const char>(out.data(), fill)));
        fill = 0;
      }
    }
  }
  if (emitted != records_added_) {
    return Status::Internal("external merge lost records: emitted " +
                            std::to_string(emitted) + " of " +
                            std::to_string(records_added_));
  }

  for (const auto& part : spills_)
    for (const auto& path : part) std::remove(path.c_str());
  for (auto& part : spills_) part.clear();

  MergeStats::Round round;
  round.active_workers = 1;
  round.items_moved = emitted;
  round.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats.rounds.push_back(round);
  if (P > 1) detail::record_partition_stats(stats, per_part);
  return stats;
}

}  // namespace supmr::merge
