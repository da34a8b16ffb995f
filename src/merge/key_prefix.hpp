// Key-prefix sort entries for fixed-width records (AlphaSort, Nyberg et al.,
// SIGMOD '94).
//
// Sorting an index array with a memcmp comparator makes every comparison
// dereference two random records: two cache misses per compare, and the
// sort's working set is the whole record buffer. A key-prefix entry carries
// the first 8 key bytes next to the record pointer, packed big-endian into
// an integer, so almost every comparison is one integer compare on a
// 16-byte entry the sort already holds in cache. Only entries whose
// prefixes are equal fall back to memcmp over the remaining key bytes.
//
// The entries are plain values, so the generic kernels (introsort, pairwise,
// p-way and partitioned merges) sort them unchanged; the sorted entry array
// is then a gather list for materializing the permuted records.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

namespace supmr::merge {

// Key bytes folded into KeyPrefixEntry::prefix.
inline constexpr std::uint32_t kKeyPrefixBytes = 8;

struct KeyPrefixEntry {
  // First min(8, key_bytes) key bytes, big-endian, zero-padded: unsigned
  // integer order equals memcmp order over those bytes.
  std::uint64_t prefix;
  const char* rec;
};
static_assert(sizeof(KeyPrefixEntry) == 16, "entries must stay 16 bytes");

// Packs the first min(8, key_bytes) bytes at `key` into a prefix.
inline std::uint64_t key_prefix(const char* key, std::uint32_t key_bytes) {
  std::uint64_t v = 0;
  std::memcpy(&v, key, std::min(kKeyPrefixBytes, key_bytes));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline KeyPrefixEntry make_entry(const char* rec, std::uint32_t key_bytes) {
  return KeyPrefixEntry{key_prefix(rec, key_bytes), rec};
}

// Strict weak order equal to memcmp over the first key_bytes of each record.
struct KeyPrefixLess {
  std::uint32_t key_bytes;

  bool operator()(const KeyPrefixEntry& a, const KeyPrefixEntry& b) const {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return key_bytes > kKeyPrefixBytes &&
           std::memcmp(a.rec + kKeyPrefixBytes, b.rec + kKeyPrefixBytes,
                       key_bytes - kKeyPrefixBytes) < 0;
  }
};

// Writes one entry per record for `n` back-to-back `record_bytes` records.
inline void fill_entries(const char* records, std::uint64_t n,
                         std::uint64_t record_bytes, std::uint32_t key_bytes,
                         KeyPrefixEntry* out) {
  for (std::uint64_t i = 0; i < n; ++i)
    out[i] = make_entry(records + i * record_bytes, key_bytes);
}

}  // namespace supmr::merge
