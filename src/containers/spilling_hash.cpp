#include "containers/spilling_hash.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <cstdio>
#include <cstring>
#include <queue>

#include "merge/introsort.hpp"
#include "obs/macros.hpp"

namespace supmr::containers {

namespace {

// Spill record layout: [u32 key_len][key bytes][u64 count].
constexpr std::size_t kHeaderBytes = sizeof(std::uint32_t);
constexpr std::size_t kCountBytes = sizeof(std::uint64_t);

// Buffered reader over one spill run.
class SpillCursor {
 public:
  Status open(const std::string& path, std::uint64_t read_bytes) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) {
      return Status::IoError("cannot reopen spill run " + path);
    }
    buf_.resize(std::max<std::uint64_t>(read_bytes, 4096));
    return advance();
  }

  // In-memory run variant.
  void open_memory(std::vector<std::pair<std::string, std::uint64_t>> pairs) {
    mem_ = std::move(pairs);
    mem_pos_ = 0;
    if (mem_pos_ < mem_.size()) {
      key_ = mem_[mem_pos_].first;
      count_ = mem_[mem_pos_].second;
    } else {
      done_ = true;
    }
  }

  ~SpillCursor() {
    if (file_ != nullptr) std::fclose(file_);
  }

  SpillCursor() = default;
  SpillCursor(const SpillCursor&) = delete;
  SpillCursor& operator=(const SpillCursor&) = delete;

  bool done() const { return done_; }
  std::string_view key() const { return key_; }
  std::uint64_t count() const { return count_; }

  Status advance() {
    if (file_ == nullptr && !mem_.empty()) {
      ++mem_pos_;
      if (mem_pos_ >= mem_.size()) {
        done_ = true;
      } else {
        key_ = mem_[mem_pos_].first;
        count_ = mem_[mem_pos_].second;
      }
      return Status::Ok();
    }
    // File-backed: ensure a whole record is buffered.
    SUPMR_RETURN_IF_ERROR(ensure(kHeaderBytes));
    if (done_) return Status::Ok();
    std::uint32_t len = 0;
    std::memcpy(&len, buf_.data() + pos_, kHeaderBytes);
    SUPMR_RETURN_IF_ERROR(ensure(kHeaderBytes + len + kCountBytes));
    if (done_) return Status::IoError("spill run truncated mid-record");
    key_owned_.assign(buf_.data() + pos_ + kHeaderBytes, len);
    key_ = key_owned_;
    std::memcpy(&count_, buf_.data() + pos_ + kHeaderBytes + len,
                kCountBytes);
    pos_ += kHeaderBytes + len + kCountBytes;
    return Status::Ok();
  }

 private:
  // Makes at least `need` bytes available at pos_, refilling from the file;
  // sets done_ when the run is exhausted cleanly at a record boundary.
  Status ensure(std::size_t need) {
    if (len_ - pos_ >= need) return Status::Ok();
    std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
    len_ -= pos_;
    pos_ = 0;
    const std::size_t n =
        std::fread(buf_.data() + len_, 1, buf_.size() - len_, file_);
    len_ += n;
    if (len_ == 0) {
      done_ = true;
    } else if (len_ < need) {
      done_ = true;  // partial record: caller reports truncation
    }
    return Status::Ok();
  }

  std::FILE* file_ = nullptr;
  std::vector<char> buf_;
  std::size_t pos_ = 0, len_ = 0;
  std::string key_owned_;
  std::vector<std::pair<std::string, std::uint64_t>> mem_;
  std::size_t mem_pos_ = 0;
  std::string_view key_;
  std::uint64_t count_ = 0;
  bool done_ = false;
};

}  // namespace

SpillingHashContainer::~SpillingHashContainer() {
  for (const auto& path : spill_paths_) std::remove(path.c_str());
}

void SpillingHashContainer::init(std::size_t num_map_threads,
                                 Options options) {
  if (initialized_) {
    if (stripes_.size() != num_map_threads)
      throw std::logic_error(
          "SpillingHashContainer::init: map thread count changed across "
          "rounds; reset() first");
    return;
  }
  options_ = options;
  stripes_.clear();
  for (std::size_t i = 0; i < num_map_threads; ++i)
    stripes_.push_back({ArenaHashMap<std::uint64_t>(256)});
  initialized_ = true;
}

std::uint64_t SpillingHashContainer::memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_) total += s.value.memory_bytes();
  return total;
}

std::vector<std::pair<std::string, std::uint64_t>>
SpillingHashContainer::drain_stripes() {
  // Merge duplicates across stripes through a staging map, then sort.
  ArenaHashMap<std::uint64_t> merged(1024);
  for (auto& stripe : stripes_) {
    stripe.value.for_each([&](std::string_view key, const std::uint64_t& v) {
      merged.find_or_insert(key, 0) += v;
    });
    stripe.value.clear();
  }
  std::vector<std::pair<std::string, std::uint64_t>> pairs;
  pairs.reserve(merged.size());
  merged.for_each([&](std::string_view key, const std::uint64_t& v) {
    pairs.emplace_back(std::string(key), v);
  });
  merge::introsort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  return pairs;
}

Status SpillingHashContainer::spill() {
  SUPMR_TRACE_SCOPE_VAR(span, "container", "spill.run");
  auto pairs = drain_stripes();
  if (pairs.empty()) return Status::Ok();
  SUPMR_TRACE_SET_ARG(span, "pairs", pairs.size());
  SUPMR_COUNTER_ADD("spill.runs", 1);

  char name[64];
  std::snprintf(name, sizeof(name), "/supmr_agg_%p_%zu.run",
                static_cast<void*>(this), spill_paths_.size());
  const std::string path = options_.spill_dir + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create spill " + path);
  std::uint64_t written = 0;
  for (const auto& [key, count] : pairs) {
    const std::uint32_t len = static_cast<std::uint32_t>(key.size());
    if (std::fwrite(&len, 1, kHeaderBytes, f) != kHeaderBytes ||
        std::fwrite(key.data(), 1, len, f) != len ||
        std::fwrite(&count, 1, kCountBytes, f) != kCountBytes) {
      std::fclose(f);
      return Status::IoError("short write to spill " + path);
    }
    written += kHeaderBytes + len + kCountBytes;
  }
  if (std::fclose(f) != 0) return Status::IoError("spill close failed");
  SUPMR_COUNTER_ADD("spill.bytes", written);
  SUPMR_TRACE_SET_ARG2(span, "bytes", written);
  spill_paths_.push_back(path);
  return Status::Ok();
}

Status SpillingHashContainer::maybe_spill() {
  if (memory_bytes() <= options_.memory_budget_bytes) return Status::Ok();
  return spill();
}

Status SpillingHashContainer::merge_reduce(
    const std::function<void(std::string_view, std::uint64_t)>& fn) {
  std::vector<SpillCursor> cursors(spill_paths_.size() + 1);
  for (std::size_t r = 0; r < spill_paths_.size(); ++r) {
    SUPMR_RETURN_IF_ERROR(
        cursors[r].open(spill_paths_[r], options_.merge_read_bytes));
  }
  cursors.back().open_memory(drain_stripes());

  // K-way combining merge: repeatedly take the smallest key across cursors,
  // folding equal keys from multiple runs. K is small (runs + 1), so a
  // linear min-scan per output key is fine.
  while (true) {
    // Find the minimum key among live cursors.
    std::string_view min_key;
    bool any = false;
    for (const auto& c : cursors) {
      if (c.done()) continue;
      if (!any || c.key() < min_key) {
        min_key = c.key();
        any = true;
      }
    }
    if (!any) break;
    const std::string key(min_key);  // copy: advancing invalidates views
    std::uint64_t total = 0;
    for (auto& c : cursors) {
      while (!c.done() && c.key() == key) {
        total += c.count();
        SUPMR_RETURN_IF_ERROR(c.advance());
      }
    }
    fn(key, total);
  }

  for (const auto& path : spill_paths_) std::remove(path.c_str());
  spill_paths_.clear();
  return Status::Ok();
}

}  // namespace supmr::containers
