// Ingest chunk data structures (paper §III.A).
//
// A ChunkExtent describes where a chunk's bytes live (planning output); an
// IngestChunk carries the bytes once read — either OWNED (a vector filled by
// Device::read_at, the copying path) or BORROWED (a span lent by a
// view-capable device, the zero-copy mmap path; valid for the device's
// lifetime). Intra-file chunks additionally carry per-file spans so
// applications that are file-oriented (e.g. inverted index) can recover file
// identities inside a coalesced chunk.
//
// ChunkBufferPool recycles owned buffers between pipeline rounds so the
// copying path's steady-state allocation rate drops to zero: the producer
// acquires a buffer before each read, the consumer releases it after the map
// round, and the double-buffer depth bounds how many are ever in flight.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/enum_names.hpp"

namespace supmr::ingest {

// How a source moves bytes from the device into chunks (--io).
enum class IoMode {
  kRead,  // positional reads into owned (pooled) chunk buffers
  kMmap,  // borrowed zero-copy views from a view-capable device; sources
          // fall back to kRead per chunk when the device cannot lend views
          // (throttled/fault-injected/retrying stacks — you cannot retry a
          // page fault)
};

// Shared name table (common/enum_names.hpp): the CLI's --io flag, the
// replay/serve spec parsers, and metric labels all go through this.
inline constexpr EnumName<IoMode> kIoModeNames[] = {
    {IoMode::kRead, "read"},
    {IoMode::kMmap, "mmap"},
};

inline std::string_view io_mode_name(IoMode mode) {
  return enum_to_name(kIoModeNames, mode);
}

// A contiguous region of one source file placed inside a chunk.
struct FileSpan {
  std::size_t file_index = 0;      // index into the source's file list
  std::uint64_t file_offset = 0;   // where the region starts in the file
                                   // (non-zero when hybrid chunking splits
                                   // a large file across chunks)
  std::uint64_t offset_in_chunk = 0;
  std::uint64_t length = 0;
};

struct ChunkExtent {
  std::uint64_t index = 0;   // position in the ingest stream
  std::uint64_t offset = 0;  // device offset (inter-file chunking)
  std::uint64_t length = 0;  // total bytes
  std::vector<FileSpan> files;  // non-empty only for intra-file chunks
};

struct IngestChunk {
  std::uint64_t index = 0;
  std::uint64_t offset = 0;
  std::vector<char> data;  // owned storage; meaningful only when !borrowed
  std::vector<FileSpan> files;

  // Switches the chunk to a borrowed device view (zero-copy path). The
  // owned buffer is kept untouched so its capacity can still be recycled.
  void set_view(std::span<const char> view) {
    view_ = view;
    borrowed_ = true;
  }

  // Switches back to owned storage (callers then fill `data`). A
  // default-constructed chunk starts owned.
  void set_owned() {
    view_ = {};
    borrowed_ = false;
  }

  // The chunk's bytes regardless of storage mode. Well-defined for 0-byte
  // chunks in both modes (an empty span).
  std::span<const char> bytes() const {
    return borrowed_ ? view_
                     : std::span<const char>(data.data(), data.size());
  }
  std::size_t size() const { return bytes().size(); }
  bool empty() const { return bytes().empty(); }
  bool borrowed() const { return borrowed_; }

 private:
  std::span<const char> view_;  // non-owning (mmap path); empty when owned
  bool borrowed_ = false;
};

// Thread-safe freelist of chunk buffers (one producer, one consumer in the
// pipeline; any number of callers is safe). acquire() hands back a recycled
// vector — cleared but with its capacity intact, so the subsequent
// resize(extent.length) is allocation-free once the pool is warm — or a
// fresh one when the pool is empty. Releasing a 0-capacity buffer is a
// no-op (nothing to recycle), keeping 0-byte chunks well-defined.
class ChunkBufferPool {
 public:
  // A single pipeline has at most four buffers live at once: the double
  // buffer's two slots, the one the producer fills and the one the consumer
  // drains. An acquire() misses only when every buffer made so far is live,
  // so with a cap of at least kBuffersPerPipeline one pipeline misses at
  // most kBuffersPerPipeline times, however its threads are scheduled. When
  // N jobs share one pool (JobManager), size the cap from the lease:
  // N * kBuffersPerPipeline — a cap sized for one pipeline would thrash,
  // with concurrent pipelines stealing each other's warm buffers and
  // re-allocating every round.
  static constexpr std::size_t kBuffersPerPipeline = 4;

  explicit ChunkBufferPool(std::size_t max_buffers = kBuffersPerPipeline)
      : max_buffers_(max_buffers) {}

  std::vector<char> acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      ++misses_;  // caller allocates fresh; steady state should not miss
      return {};
    }
    std::vector<char> buf = std::move(free_.back());
    free_.pop_back();
    buf.clear();
    ++reuses_;
    return buf;
  }

  void release(std::vector<char>&& buf) {
    if (buf.capacity() == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() >= max_buffers_) return;  // let it deallocate
    free_.push_back(std::move(buf));
  }

  std::size_t pooled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }
  std::uint64_t reuses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reuses_;
  }
  // acquire() calls that found the freelist empty (the caller allocated).
  // The first rounds of each pipeline miss while the pool warms; a non-zero
  // *delta* across steady-state runs means the cap is undersized for the
  // number of concurrent pipelines.
  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  std::size_t max_buffers() const { return max_buffers_; }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<char>> free_;
  std::size_t max_buffers_;
  std::uint64_t reuses_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace supmr::ingest
