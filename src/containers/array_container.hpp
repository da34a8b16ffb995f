// Array container: Phoenix's "unlocked storage" for unique-key workloads.
//
// Sort transforms the input into an equal-sized intermediate set with unique
// keys, so hashing is pure overhead (paper §V.B). Instead, all threads write
// fixed-width records into claimed slots without synchronization: before
// each map round the coordinator claims a slot range for the round's records,
// then each mapper writes its own disjoint sub-range.
//
// Each claim() appends one uninitialised block, so the coordinator never
// zero-fills or moves earlier records: the mappers first-touch their own
// slots, and a record's address stays fixed for the container's lifetime
// (callers may keep pointers to it, as TeraSort's key-prefix entries do).
// Slots are numbered contiguously across blocks, and the slots of one claim
// are contiguous in memory.
//
// Records are copied in, so the container owns the data and chunk buffers
// can be recycled — which is what lets the persistent container span the
// whole ingest stream while only two chunks stay resident.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

namespace supmr::containers {

class ArrayContainer {
 public:
  // Idempotent across map rounds (persistence, paper §III.C).
  void init(std::uint64_t record_bytes) {
    if (initialized_) {
      if (record_bytes_ != record_bytes)
        throw std::logic_error(
            "ArrayContainer::init: record_bytes changed across rounds; "
            "reset() first");
      return;
    }
    record_bytes_ = record_bytes;
    used_records_ = 0;
    initialized_ = true;
  }

  bool initialized() const { return initialized_; }
  std::uint64_t record_bytes() const { return record_bytes_; }
  std::uint64_t size() const { return used_records_; }

  void reset() {
    blocks_.clear();
    used_records_ = 0;
    initialized_ = false;
  }

  // Claims `n` record slots in a new block and returns the first slot index.
  // Must be called between map waves; mappers then fill their disjoint
  // sub-ranges concurrently via write_record() or mutable_record().
  std::uint64_t claim(std::uint64_t n) {
    assert(initialized_);
    const std::uint64_t base = used_records_;
    if (n == 0) return base;
    blocks_.push_back(
        Block{base, std::make_unique_for_overwrite<char[]>(n * record_bytes_)});
    used_records_ += n;
    return base;
  }

  // Unsynchronized write into a claimed slot (each mapper owns its slots).
  void write_record(std::uint64_t slot, std::span<const char> record) {
    assert(record.size() == record_bytes_);
    std::memcpy(mutable_record(slot), record.data(), record_bytes_);
  }

  std::span<const char> record(std::uint64_t slot) const {
    return std::span<const char>(locate(slot), record_bytes_);
  }
  char* mutable_record(std::uint64_t slot) { return locate(slot); }

 private:
  struct Block {
    std::uint64_t first_slot;
    std::unique_ptr<char[]> bytes;
  };

  char* locate(std::uint64_t slot) const {
    assert(slot < used_records_);
    // The last block starting at or before `slot`.
    const auto it = std::upper_bound(
        blocks_.begin(), blocks_.end(), slot,
        [](std::uint64_t s, const Block& b) { return s < b.first_slot; });
    const Block& block = *(it - 1);
    return block.bytes.get() + (slot - block.first_slot) * record_bytes_;
  }

  std::vector<Block> blocks_;
  std::uint64_t record_bytes_ = 0;
  std::uint64_t used_records_ = 0;
  bool initialized_ = false;
};

}  // namespace supmr::containers
