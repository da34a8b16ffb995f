// Sorted stripe runs and the folding merge (apps/stripe_runs.hpp): the
// key-prefix comparator against std::string order, and every merge mode x
// container differentially against a std::map fold of the same emits.
//
// The key shapes are the ones a prefix comparator gets wrong: lengths around
// the 8-byte prefix and the combining container's 12-byte inline limit, keys
// that share an 8-byte stem, keys that are strict prefixes of others, and
// the bytes 0x00, 0x7f, 0x80 and 0xff. Keys present in every stripe, with
// few distinct keys against many partitions, put equal keys on the sampled
// splitters: a fold split across two workers would show as a duplicate key.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/stripe_runs.hpp"
#include "common/rng.hpp"
#include "containers/combiners.hpp"
#include "containers/combining.hpp"
#include "core/replay.hpp"
#include "merge/key_prefix.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::apps {
namespace {

using Container =
    containers::SwitchedContainer<containers::SumCombiner<std::uint64_t>>;
using Entry = merge::KeyValueEntry<std::uint64_t>;
using Reference = std::map<std::string, std::uint64_t>;

// One stripe's emits: (key, count) in emit order.
using Stripe = std::vector<std::pair<std::string, std::uint64_t>>;

// Keys built from explicit bytes, so NUL and high bytes survive.
std::string bytes(std::initializer_list<unsigned char> b) {
  return std::string(b.begin(), b.end());
}

std::vector<std::string> edge_keys() {
  std::vector<std::string> keys;
  for (std::size_t len : {1u, 7u, 8u, 9u, 15u, 16u, 17u}) {
    keys.push_back(std::string(len, 'k'));
    keys.push_back(std::string(len - 1, 'k') + 'a');
  }
  // Shared 8-byte stem, strict prefixes, and a stem that differs only past
  // byte 8.
  for (const char* k : {"abcdefgh", "abcdefghi", "abcdefghij", "abcdefghz",
                        "abcdefghijklmnop", "abcdefghijklmnopq", "ab", "a",
                        "abc"}) {
    keys.emplace_back(k);
  }
  keys.push_back(bytes({'a', 'b', 0x01}));
  keys.push_back(bytes({'a', 'b', 0x00}));
  keys.push_back(bytes({'a', 'b', 0x00, 0x00}));
  keys.push_back(std::string("abcdefgh") + bytes({0x00}));
  keys.push_back(std::string("abcdefgh") + bytes({0xff}));
  keys.push_back(std::string("abcdefgh") + bytes({0x7f, 0x80}));
  keys.push_back(std::string("abcdefgh") + bytes({0x80, 0x7f}));
  keys.push_back(bytes({0x00}));
  keys.push_back(bytes({0x7f}));
  keys.push_back(bytes({0x80}));
  keys.push_back(bytes({0xff}));
  keys.push_back(bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00}));
  keys.push_back(bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}));
  keys.push_back(bytes({0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0x7f}));
  keys.push_back(bytes({0x7f, 0, 0, 0, 0, 0, 0, 0, 0, 0x80}));
  return keys;
}

struct Case {
  std::string name;
  std::vector<Stripe> stripes;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  const std::vector<std::string> keys = edge_keys();

  // Every edge key in every stripe, each stripe emitting in its own order.
  {
    Case c{"edge_keys_in_every_stripe", std::vector<Stripe>(4)};
    for (std::size_t s = 0; s < c.stripes.size(); ++s) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::string& k = keys[(i * (2 * s + 1)) % keys.size()];
        c.stripes[s].emplace_back(k, s + 1);
        if (i % 3 == 0) c.stripes[s].emplace_back(k, 1);  // folds at emit
      }
    }
    out.push_back(std::move(c));
  }

  // The edge keys dealt across stripes, one key in all of them, and two
  // empty stripes.
  {
    Case c{"dealt_keys_one_common_empty_stripes", std::vector<Stripe>(5)};
    for (std::size_t i = 0; i < keys.size(); ++i)
      c.stripes[(i % 3) * 2].emplace_back(keys[i], i + 1);
    for (std::size_t s : {0u, 2u, 4u}) c.stripes[s].emplace_back("common", 7);
    out.push_back(std::move(c));
  }

  // A single stripe: the merge has one run.
  {
    Case c{"single_stripe", std::vector<Stripe>(1)};
    for (std::size_t i = 0; i < keys.size(); ++i)
      c.stripes[0].emplace_back(keys[i], 2 * i + 1);
    out.push_back(std::move(c));
  }

  // Only empty stripes.
  out.push_back(Case{"all_stripes_empty", std::vector<Stripe>(3)});

  // Few distinct keys (all sharing an 8-byte stem) in all of 8 stripes:
  // with 64 partitions the sampled splitters are keys of this set, so
  // every splitter has one equal entry in each run.
  {
    Case c{"equal_keys_on_splitters", std::vector<Stripe>(8)};
    for (std::size_t s = 0; s < 8; ++s) {
      for (std::size_t i = 0; i < 40; ++i)
        c.stripes[s].emplace_back("stemstem" + std::to_string(i), s + i);
    }
    out.push_back(std::move(c));
  }

  // Seeded random keys over a small alphabet with the edge bytes, so many
  // keys share prefixes and most keys recur across stripes.
  {
    Case c{"random_shared_prefixes", std::vector<Stripe>(6)};
    Xoshiro256 rng(17);
    const unsigned char alphabet[] = {'a', 'b', 0x00, 0x7f, 0x80, 0xff};
    std::vector<std::string> pool;
    for (std::size_t i = 0; i < 400; ++i) {
      std::string k = "prefix" + std::string(rng.uniform(4), 'x');
      const std::size_t extra = rng.uniform(14);
      for (std::size_t j = 0; j < extra; ++j)
        k += static_cast<char>(alphabet[rng.uniform(sizeof(alphabet))]);
      pool.push_back(k);
    }
    for (auto& stripe : c.stripes) {
      for (std::size_t i = 0; i < 1500; ++i)
        stripe.emplace_back(pool[rng.uniform(pool.size())],
                            rng.uniform(5) + 1);
    }
    out.push_back(std::move(c));
  }
  return out;
}

Reference reference(const Case& c) {
  Reference ref;
  for (const Stripe& stripe : c.stripes) {
    for (const auto& [key, count] : stripe) ref[key] += count;
  }
  return ref;
}

std::vector<std::pair<std::string, std::uint64_t>> run_case(
    const Case& c, core::ContainerMode mode, const core::MergePlan& plan,
    ThreadPool& pool) {
  Container container;
  container.select(mode);
  container.init(c.stripes.size(), /*capacity_hint=*/8);
  for (std::size_t s = 0; s < c.stripes.size(); ++s) {
    for (const auto& [key, count] : c.stripes[s])
      container.emit(s, key, count);
  }
  StripeRuns<Container> runs;
  std::vector<std::pair<std::string, std::uint64_t>> results;
  EXPECT_TRUE(runs.reduce(pool, container).ok());
  merge::MergeStats stats;
  EXPECT_TRUE(runs.merge(pool, plan, results, &stats).ok());
  return results;
}

TEST(KeyValueLess, MatchesStdStringOrderOnEdgeKeys) {
  const std::vector<std::string> keys = edge_keys();
  const merge::KeyValueLess less;
  for (const std::string& a : keys) {
    for (const std::string& b : keys) {
      const Entry ea = merge::make_key_value_entry(std::string_view(a), 0ul);
      const Entry eb = merge::make_key_value_entry(std::string_view(b), 0ul);
      EXPECT_EQ(less(ea, eb), a < b) << testing::PrintToString(a) << " vs "
                                     << testing::PrintToString(b);
      EXPECT_EQ(merge::same_key(ea, eb), a == b);
    }
  }
}

TEST(StripeRuns, FoldingMergeMatchesMapInEveryModeAndContainer) {
  ThreadPool pool(4);
  const std::vector<core::MergePlan> plans = {
      {core::MergeMode::kPairwise, 1},    {core::MergeMode::kPWay, 1},
      {core::MergeMode::kPartitioned, 1}, {core::MergeMode::kPartitioned, 3},
      {core::MergeMode::kPartitioned, 64}};
  for (const Case& c : cases()) {
    const Reference ref = reference(c);
    const std::vector<std::pair<std::string, std::uint64_t>> expected(
        ref.begin(), ref.end());
    for (core::ContainerMode mode :
         {core::ContainerMode::kDefault, core::ContainerMode::kCombining}) {
      for (const core::MergePlan& plan : plans) {
        EXPECT_EQ(run_case(c, mode, plan, pool), expected)
            << c.name << " container=" << core::container_mode_name(mode)
            << " merge=" << core::merge_mode_name(plan.mode)
            << " partitions=" << plan.partitions;
      }
    }
  }
}

TEST(StripeRuns, MergeWithoutReduceIsEmpty) {
  ThreadPool pool(2);
  StripeRuns<Container> runs;
  std::vector<std::pair<std::string, std::uint64_t>> results = {{"stale", 1}};
  ASSERT_TRUE(runs.merge(pool, {core::MergeMode::kPWay, 1}, results, nullptr)
                  .ok());
  EXPECT_TRUE(results.empty());
}

}  // namespace
}  // namespace supmr::apps
