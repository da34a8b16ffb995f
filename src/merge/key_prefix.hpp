// Key-prefix sort entries (AlphaSort, Nyberg et al., SIGMOD '94): for
// fixed-width records, and for variable-length keys with a folded value.
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
// is then a gather list for materializing the permuted records. An entry
// points into its record's storage, so that storage must not move while
// the entry lives.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

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

// The key bytes of a prefix in native byte order: the inverse of
// key_prefix(), equal to a memcpy of the first min(8, key_bytes) key bytes
// into a zeroed word.
inline std::uint64_t prefix_key_word(std::uint64_t prefix) {
  if constexpr (std::endian::native == std::endian::little) {
    prefix = __builtin_bswap64(prefix);
  }
  return prefix;
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

// A key-prefix entry for a variable-length key and the value folded under
// it: the hash-container apps' stripe runs (apps/stripe_runs.hpp). `key`
// points at the key bytes wherever the container keeps them.
template <typename V>
struct KeyValueEntry {
  std::uint64_t prefix;  // key_prefix(key, min(8, len))
  const char* key;
  std::uint32_t len;
  V value;
};
static_assert(sizeof(KeyValueEntry<std::uint64_t>) == 32,
              "u64-valued entries must stay 32 bytes");

template <typename V>
KeyValueEntry<V> make_key_value_entry(std::string_view key, const V& value) {
  const auto len = static_cast<std::uint32_t>(key.size());
  return KeyValueEntry<V>{key_prefix(key.data(), len), key.data(), len, value};
}

// std::string order over the keys: unsigned bytes, the shorter key first
// when one is a prefix of the other. Equal prefixes mean equal first
// min(8, len) bytes (zero padding sorts below every byte it could hide), so
// only the bytes past the eighth and the lengths are left to compare.
struct KeyValueLess {
  template <typename V>
  bool operator()(const KeyValueEntry<V>& a, const KeyValueEntry<V>& b) const {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    const std::uint32_t common = std::min(a.len, b.len);
    if (common > kKeyPrefixBytes) {
      const int c = std::memcmp(a.key + kKeyPrefixBytes,
                                b.key + kKeyPrefixBytes,
                                common - kKeyPrefixBytes);
      if (c != 0) return c < 0;
    }
    return a.len < b.len;
  }
};

template <typename V>
bool same_key(const KeyValueEntry<V>& a, const KeyValueEntry<V>& b) {
  return a.prefix == b.prefix && a.len == b.len &&
         (a.len <= kKeyPrefixBytes ||
          std::memcmp(a.key + kKeyPrefixBytes, b.key + kKeyPrefixBytes,
                      a.len - kKeyPrefixBytes) == 0);
}

}  // namespace supmr::merge
