// Unit + property tests for the intermediate containers: arena hash map,
// combiners, hash container striping/partitioning/persistence, array
// container.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include <stdexcept>

#include "containers/array_container.hpp"
#include "containers/combiners.hpp"
#include "containers/fixed_kv_array.hpp"
#include "containers/hash_container.hpp"

namespace supmr::containers {
namespace {

// ---------------------------------------------------------- ArenaHashMap

TEST(ArenaHashMap, InsertAndFind) {
  ArenaHashMap<int> m;
  m.find_or_insert("alpha", 0) = 1;
  m.find_or_insert("beta", 0) = 2;
  EXPECT_EQ(*m.find("alpha"), 1);
  EXPECT_EQ(*m.find("beta"), 2);
  EXPECT_EQ(m.find("gamma"), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(ArenaHashMap, FindOrInsertReturnsExisting) {
  ArenaHashMap<int> m;
  m.find_or_insert("k", 10);
  int& v = m.find_or_insert("k", 99);
  EXPECT_EQ(v, 10);
  EXPECT_EQ(m.size(), 1u);
}

TEST(ArenaHashMap, KeysOwnedByArena) {
  ArenaHashMap<int> m;
  {
    // Key built in a transient buffer that is promptly destroyed.
    std::string transient = "ephemeral-key";
    m.find_or_insert(transient, 7);
    transient.assign(transient.size(), '#');
  }
  EXPECT_EQ(*m.find("ephemeral-key"), 7);
}

TEST(ArenaHashMap, GrowthPreservesEntries) {
  ArenaHashMap<std::uint64_t> m(4);
  for (int i = 0; i < 5000; ++i)
    m.find_or_insert("key-" + std::to_string(i), i);
  EXPECT_EQ(m.size(), 5000u);
  for (int i = 0; i < 5000; i += 37)
    EXPECT_EQ(*m.find("key-" + std::to_string(i)),
              static_cast<std::uint64_t>(i));
}

TEST(ArenaHashMap, ForEachVisitsAllOnce) {
  ArenaHashMap<int> m;
  for (int i = 0; i < 100; ++i)
    m.find_or_insert("k" + std::to_string(i), i);
  std::set<std::string> seen;
  m.for_each([&](std::string_view k, const int&) {
    EXPECT_TRUE(seen.insert(std::string(k)).second);
  });
  EXPECT_EQ(seen.size(), 100u);
}

TEST(ArenaHashMap, PartitionsAreDisjointAndComplete) {
  ArenaHashMap<int> m;
  for (int i = 0; i < 1000; ++i)
    m.find_or_insert("key" + std::to_string(i), i);
  constexpr std::size_t kParts = 7;
  std::set<std::string> seen;
  for (std::size_t p = 0; p < kParts; ++p) {
    m.for_each_in_partition(p, kParts, [&](std::string_view k, const int&) {
      EXPECT_TRUE(seen.insert(std::string(k)).second)
          << "key in two partitions: " << k;
    });
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(ArenaHashMap, PartitionAssignmentStableAcrossGrowth) {
  // The same key must land in the same partition before and after rehash.
  ArenaHashMap<int> small(4);
  small.find_or_insert("stable-key", 1);
  std::size_t part_before = ~0ull;
  for (std::size_t p = 0; p < 5; ++p) {
    small.for_each_in_partition(p, 5, [&](std::string_view, const int&) {
      part_before = p;
    });
  }
  for (int i = 0; i < 10000; ++i)
    small.find_or_insert("filler" + std::to_string(i), i);
  bool found = false;
  small.for_each_in_partition(part_before, 5,
                              [&](std::string_view k, const int&) {
                                if (k == "stable-key") found = true;
                              });
  EXPECT_TRUE(found);
}

TEST(ArenaHashMap, EmptyKeySupported) {
  ArenaHashMap<int> m;
  m.find_or_insert("", 5);
  EXPECT_EQ(*m.find(""), 5);
}

TEST(ArenaHashMap, ClearResets) {
  ArenaHashMap<int> m;
  m.find_or_insert("x", 1);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find("x"), nullptr);
}

// Property: the map agrees with std::map over random operation sequences.
class ArenaMapProperty : public ::testing::TestWithParam<int> {};

TEST_P(ArenaMapProperty, MatchesReferenceMap) {
  Xoshiro256 rng(GetParam());
  ArenaHashMap<std::uint64_t> m;
  std::map<std::string, std::uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    std::string key = "k" + std::to_string(rng.uniform(500));
    const std::uint64_t add = rng.uniform(100);
    m.find_or_insert(key, 0) += add;
    ref[key] += add;
  }
  EXPECT_EQ(m.size(), ref.size());
  m.for_each([&](std::string_view k, const std::uint64_t& v) {
    auto it = ref.find(std::string(k));
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaMapProperty,
                         ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------------------- combiners

TEST(Combiners, Sum) {
  std::uint64_t acc = SumCombiner<std::uint64_t>::identity();
  SumCombiner<std::uint64_t>::combine(acc, 3);
  SumCombiner<std::uint64_t>::combine(acc, 4);
  std::uint64_t other = 10;
  SumCombiner<std::uint64_t>::merge(acc, other);
  EXPECT_EQ(acc, 17u);
}

TEST(Combiners, MinMax) {
  int lo = MinCombiner<int>::identity();
  MinCombiner<int>::combine(lo, 5);
  MinCombiner<int>::combine(lo, -2);
  EXPECT_EQ(lo, -2);
  int hi = MaxCombiner<int>::identity();
  MaxCombiner<int>::combine(hi, 5);
  MaxCombiner<int>::combine(hi, -2);
  EXPECT_EQ(hi, 5);
}

TEST(Combiners, AppendKeepsEverything) {
  auto acc = AppendCombiner<int>::identity();
  AppendCombiner<int>::combine(acc, 1);
  AppendCombiner<int>::combine(acc, 2);
  std::vector<int> other{3, 4};
  AppendCombiner<int>::merge(acc, std::move(other));
  EXPECT_EQ(acc, (std::vector<int>{1, 2, 3, 4}));
}

// --------------------------------------------------------- HashContainer

using WordCounts = HashContainer<SumCombiner<std::uint64_t>>;

TEST(HashContainer, EmitAndReducePartition) {
  WordCounts c;
  c.init(2);
  c.emit(0, "apple", 1);
  c.emit(0, "apple", 1);
  c.emit(1, "apple", 1);  // same key, different stripe
  c.emit(1, "pear", 1);
  std::map<std::string, std::uint64_t> merged;
  for (std::size_t p = 0; p < 4; ++p) {
    for (auto& [k, v] : c.reduce_partition(p, 4)) merged[k] += v;
  }
  EXPECT_EQ(merged["apple"], 3u);
  EXPECT_EQ(merged["pear"], 1u);
  EXPECT_EQ(merged.size(), 2u);
}

TEST(HashContainer, InitIsIdempotent) {
  // The persistent container: re-initializing across rounds keeps pairs
  // (paper §III.C).
  WordCounts c;
  c.init(2);
  c.emit(0, "w", 1);
  c.init(2);  // second round's run_mappers
  c.emit(1, "w", 1);
  auto pairs = c.reduce_partition(0, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 2u);
}

TEST(HashContainer, ThreadCountChangeAcrossRoundsThrows) {
  // Regression: a thread-count mismatch on re-init used to be a bare
  // assert — compiled out under NDEBUG, so emit() would silently index past
  // the stripe vector. It is a hard runtime error now, whatever the build.
  WordCounts c;
  c.init(2);
  c.emit(0, "w", 1);
  EXPECT_THROW(c.init(3), std::logic_error);
  c.reset();
  c.init(3);  // after reset a new geometry is legal
  c.emit(2, "w", 1);
  auto pairs = c.reduce_partition(0, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 1u);
}

TEST(ArrayContainer, GeometryChangeAcrossRoundsThrows) {
  ArrayContainer c;
  c.init(4);
  c.claim(1);
  EXPECT_THROW(c.init(8), std::logic_error);
  c.reset();
  c.init(8);  // reset unlocks a new record size
}

TEST(FixedKvArray, GeometryChangeAcrossRoundsThrows) {
  FixedKvArray<SumCombiner<std::uint64_t>> c;
  c.init(2, 16);
  EXPECT_THROW(c.init(3, 16), std::logic_error);  // thread count changed
  EXPECT_THROW(c.init(2, 32), std::logic_error);  // key count changed
  c.reset();
  c.init(3, 32);
}

TEST(HashContainer, ResetLosesPriorRounds) {
  // What the ORIGINAL runtime's per-round container init would do — this is
  // the failure mode persistence prevents.
  WordCounts c;
  c.init(1);
  c.emit(0, "w", 1);
  c.reset();
  c.init(1);
  c.emit(0, "w", 1);
  auto pairs = c.reduce_partition(0, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].second, 1u);  // the first round's pair was lost
}

TEST(HashContainer, ConcurrentStripeEmission) {
  constexpr std::size_t kThreads = 4;
  constexpr int kPerThread = 50000;
  WordCounts c;
  c.init(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        c.emit(t, "key" + std::to_string(i % 100), 1);
    });
  }
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < 8; ++p) {
    for (auto& [k, v] : c.reduce_partition(p, 8)) total += v;
  }
  EXPECT_EQ(total, kThreads * kPerThread);
}

TEST(HashContainer, PartitionsDisjointAcrossStripes) {
  WordCounts c;
  c.init(3);
  for (int i = 0; i < 300; ++i) c.emit(i % 3, "k" + std::to_string(i), 1);
  std::set<std::string> seen;
  for (std::size_t p = 0; p < 5; ++p) {
    for (auto& [k, v] : c.reduce_partition(p, 5)) {
      EXPECT_TRUE(seen.insert(k).second) << k;
    }
  }
  EXPECT_EQ(seen.size(), 300u);
}

TEST(HashContainer, AppendCombinerVariant) {
  HashContainer<AppendCombiner<std::uint32_t>> c;
  c.init(2);
  c.emit(0, "doc", 1u);
  c.emit(1, "doc", 2u);
  auto pairs = c.reduce_partition(0, 1);
  ASSERT_EQ(pairs.size(), 1u);
  std::vector<std::uint32_t> files = pairs[0].second;
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::uint32_t>{1, 2}));
}

// -------------------------------------------------------- ArrayContainer

TEST(ArrayContainer, ClaimAndWrite) {
  ArrayContainer c;
  c.init(4);
  const std::uint64_t base = c.claim(3);
  EXPECT_EQ(base, 0u);
  c.write_record(0, std::span<const char>("aaaa", 4));
  c.write_record(1, std::span<const char>("bbbb", 4));
  c.write_record(2, std::span<const char>("cccc", 4));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(std::string(c.record(1).data(), 4), "bbbb");
}

TEST(ArrayContainer, ClaimsAreContiguousAcrossRounds) {
  ArrayContainer c;
  c.init(2);
  EXPECT_EQ(c.claim(5), 0u);
  EXPECT_EQ(c.claim(3), 5u);
  EXPECT_EQ(c.size(), 8u);
}

TEST(ArrayContainer, InitIdempotentPersistence) {
  ArrayContainer c;
  c.init(4);
  c.claim(2);
  c.write_record(0, std::span<const char>("r0r0", 4));
  c.init(4);  // next round
  c.claim(1);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(std::string(c.record(0).data(), 4), "r0r0");  // survived
}

TEST(ArrayContainer, ConcurrentDisjointWrites) {
  constexpr std::uint64_t kRecords = 10000;
  ArrayContainer c;
  c.init(8);
  c.claim(kRecords);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      char rec[8];
      for (std::uint64_t r = t; r < kRecords; r += 4) {
        std::snprintf(rec, sizeof(rec), "%07llu",
                      static_cast<unsigned long long>(r));
        c.write_record(r, std::span<const char>(rec, 8));
      }
    });
  }
  for (auto& w : workers) w.join();
  char expect[8];
  for (std::uint64_t r = 0; r < kRecords; r += 997) {
    std::snprintf(expect, sizeof(expect), "%07llu",
                  static_cast<unsigned long long>(r));
    EXPECT_EQ(std::memcmp(c.record(r).data(), expect, 8), 0);
  }
}

TEST(ArrayContainer, RecordsKeepTheirAddressAcrossLaterClaims) {
  // Callers keep pointers into earlier rounds (TeraSort's key-prefix
  // entries), so later claims must never move a record. Round sizes vary and
  // include an empty round. Each 8-byte record holds its own slot number.
  ArrayContainer c;
  c.init(sizeof(std::uint64_t));
  std::vector<const char*> addr;
  for (const std::uint64_t n :
       {std::uint64_t{3}, std::uint64_t{0}, std::uint64_t{1000},
        std::uint64_t{1}, std::uint64_t{0}, std::uint64_t{4096},
        std::uint64_t{7}}) {
    const std::uint64_t base = c.claim(n);
    EXPECT_EQ(base, addr.size());
    for (std::uint64_t s = base; s < base + n; ++s) {
      c.write_record(s, std::span<const char>(
                            reinterpret_cast<const char*>(&s), sizeof(s)));
      addr.push_back(c.record(s).data());
    }
    if (n > 0) {
      // One claim's slots are contiguous in memory.
      EXPECT_EQ(c.mutable_record(base + n - 1),
                c.mutable_record(base) + (n - 1) * sizeof(std::uint64_t));
    }
  }
  ASSERT_EQ(c.size(), addr.size());
  for (std::uint64_t s = 0; s < c.size(); ++s) {
    EXPECT_EQ(c.record(s).data(), addr[s]) << s;
    std::uint64_t stored = 0;
    std::memcpy(&stored, addr[s], sizeof(stored));
    EXPECT_EQ(stored, s);
  }
}

TEST(ArrayContainer, ResetClears) {
  ArrayContainer c;
  c.init(4);
  c.claim(10);
  c.reset();
  EXPECT_FALSE(c.initialized());
  c.init(8);  // may re-init with a different width after reset
  EXPECT_EQ(c.record_bytes(), 8u);
  EXPECT_EQ(c.size(), 0u);
}

}  // namespace
}  // namespace supmr::containers
