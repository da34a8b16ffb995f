// Differential merge-correctness suite: every merge backend in src/merge/
// is pinned against a std::stable_sort reference on seeded adversarial
// inputs (tests/testdata.hpp). This is the safety net under the partitioned
// shuffle work (docs/merge.md): any reordering, dropped record, duplicate,
// or comparator tie-break bug in ANY backend shows up as a diff against the
// reference, on the exact inputs the benches run.
//
// Backends: pairwise, f-way, parallel p-way, loser tree, sample sort,
// pairwise merge sort, f-way merge sort, partitioned_merge /
// partitioned_merge_runs (the per-partition paths), and the external sorter
// (flat and per-partition spills) with key sizes 7/8/9 straddling the
// comparator's 8-byte word boundary.
//
// Labels: unit + sanitizer — the differential suite must stay clean under
// TSan and ASan+UBSan (tools/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "merge/external_sorter.hpp"
#include "merge/fway.hpp"
#include "merge/loser_tree.hpp"
#include "merge/pairwise.hpp"
#include "merge/partitioned.hpp"
#include "merge/pway.hpp"
#include "merge/sample_sort.hpp"
#include "tests/testdata.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::merge {
namespace {

std::vector<int> reference_sort(std::vector<int> v) {
  std::stable_sort(v.begin(), v.end());
  return v;
}

// Splits `data` into up to `k` contiguous runs and sorts each — the
// pre-sorted-runs shape the merge kernels consume.
std::vector<std::span<int>> make_runs(std::vector<int>& data, std::size_t k) {
  std::vector<std::span<int>> runs;
  if (data.empty()) return runs;
  k = std::max<std::size_t>(1, std::min(k, data.size()));
  const std::size_t per = (data.size() + k - 1) / k;
  for (std::size_t begin = 0; begin < data.size(); begin += per) {
    const std::size_t len = std::min(per, data.size() - begin);
    std::span<int> run(data.data() + begin, len);
    std::sort(run.begin(), run.end());
    runs.push_back(run);
  }
  return runs;
}

struct Backend {
  std::string name;
  // Takes the pool and the raw (unsorted) input; returns the fully sorted
  // output by whatever path the backend implements.
  std::function<std::vector<int>(ThreadPool&, const std::vector<int>&)> run;
};

std::vector<Backend> all_backends() {
  const auto cmp = std::less<int>{};
  std::vector<Backend> backends;

  backends.push_back({"pairwise", [cmp](ThreadPool& pool,
                                        const std::vector<int>& in) {
    auto data = in;
    auto runs = make_runs(data, 8);
    pairwise_merge(pool, std::move(runs),
                   std::span<int>(data.data(), data.size()), cmp);
    return data;
  }});

  backends.push_back({"fway", [cmp](ThreadPool& pool,
                                    const std::vector<int>& in) {
    auto data = in;
    auto runs = make_runs(data, 9);  // non-power-of-two run count
    fway_merge(pool, std::move(runs),
               std::span<int>(data.data(), data.size()), /*fanin=*/3, cmp);
    return data;
  }});

  backends.push_back({"pway", [cmp](ThreadPool& pool,
                                    const std::vector<int>& in) {
    auto data = in;
    auto sorted_runs = make_runs(data, 7);
    std::vector<std::span<const int>> runs(sorted_runs.begin(),
                                           sorted_runs.end());
    std::vector<int> out(data.size());
    parallel_pway_merge(pool, std::move(runs), out.data(), cmp);
    return out;
  }});

  backends.push_back({"loser_tree", [cmp](ThreadPool&,
                                          const std::vector<int>& in) {
    auto data = in;
    auto sorted_runs = make_runs(data, 6);
    std::vector<std::span<const int>> runs(sorted_runs.begin(),
                                           sorted_runs.end());
    std::vector<int> out(data.size());
    LoserTree<int, std::less<int>> tree(std::move(runs), cmp);
    tree.drain(out.data());
    return out;
  }});

  backends.push_back({"sample_sort", [cmp](ThreadPool& pool,
                                           const std::vector<int>& in) {
    auto data = in;
    parallel_sample_sort(pool, std::span<int>(data.data(), data.size()),
                         cmp);
    return data;
  }});

  backends.push_back({"pairwise_merge_sort",
                      [cmp](ThreadPool& pool, const std::vector<int>& in) {
    auto data = in;
    pairwise_merge_sort(pool, std::span<int>(data.data(), data.size()), cmp);
    return data;
  }});

  backends.push_back({"fway_merge_sort", [cmp](ThreadPool& pool,
                                               const std::vector<int>& in) {
    auto data = in;
    fway_merge_sort(pool, std::span<int>(data.data(), data.size()), cmp,
                    /*num_runs=*/8, /*fanin=*/4);
    return data;
  }});

  backends.push_back({"partitioned_merge",
                      [cmp](ThreadPool& pool, const std::vector<int>& in) {
    // The map-time shuffle shape: bucket into (partition, thread) stripes
    // exactly as PartitionedContainer routes records, then one merge per
    // partition.
    const std::size_t threads = 3;
    const auto splitters = select_splitters(
        std::span<const int>(in.data(), in.size()), 4, cmp);
    std::vector<std::vector<std::vector<int>>> stripes(
        splitters.size() + 1, std::vector<std::vector<int>>(threads));
    for (std::size_t i = 0; i < in.size(); ++i) {
      stripes[partition_of(splitters, in[i], cmp)][i % threads].push_back(
          in[i]);
    }
    std::vector<std::vector<std::span<int>>> parts(stripes.size());
    for (std::size_t p = 0; p < stripes.size(); ++p)
      for (auto& s : stripes[p])
        if (!s.empty()) parts[p].push_back(std::span<int>(s));
    std::vector<int> out(in.size());
    partitioned_merge(pool, std::move(parts), out.data(), cmp);
    return out;
  }});

  backends.push_back({"partitioned_merge_runs",
                      [cmp](ThreadPool& pool, const std::vector<int>& in) {
    // TeraSort's map-time run shape: uneven sorted runs (some empty), cut
    // at sampled splitters and merged per partition without a re-sort.
    auto data = in;
    std::vector<std::span<const int>> runs;
    std::size_t begin = 0;
    for (std::size_t r = 0; begin < data.size() || r < 2; ++r) {
      const std::size_t end = std::min(data.size(), begin + (r % 4) * 97);
      std::sort(data.begin() + begin, data.begin() + end, cmp);
      runs.push_back(std::span<const int>(data.data() + begin, end - begin));
      begin = end;
    }
    std::vector<int> out(in.size());
    partitioned_merge_runs(pool, std::move(runs), out.data(), cmp,
                           /*num_partitions=*/5);
    return out;
  }});

  return backends;
}

class DifferentialMerge : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialMerge, EveryBackendMatchesStableSortReference) {
  ThreadPool pool(4);
  const auto datasets = testdata::adversarial_int_datasets(GetParam());
  for (const auto& dataset : datasets) {
    const std::vector<int> expected = reference_sort(dataset.data);
    for (const auto& backend : all_backends()) {
      const std::vector<int> got = backend.run(pool, dataset.data);
      EXPECT_EQ(got, expected)
          << "backend=" << backend.name << " dataset=" << dataset.name
          << " seed=" << GetParam();
    }
  }
}

TEST_P(DifferentialMerge, SingleThreadPoolSameResult) {
  // Pool of one: every wave degenerates to sequential execution; results
  // must not depend on parallelism.
  ThreadPool pool(1);
  const auto datasets = testdata::adversarial_int_datasets(GetParam());
  for (const auto& dataset : datasets) {
    const std::vector<int> expected = reference_sort(dataset.data);
    for (const auto& backend : all_backends()) {
      EXPECT_EQ(backend.run(pool, dataset.data), expected)
          << "backend=" << backend.name << " dataset=" << dataset.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialMerge,
                         ::testing::Values(1u, 0xA11CE5u, 0xC0FFEEu));

// ---------------------------------------------------------- external sorter
//
// Record-based differential: key sizes 7/8/9 straddle the 8-byte word an
// optimized memcmp compares at a time, catching prefix/tail mistakes in the
// key comparisons. Inputs are duplicate-heavy (every 4th record repeated) to
// exercise ties; both the flat and the per-partition spill layouts must
// reproduce the reference exactly.

struct ExternalCase {
  std::uint32_t key_bytes;
  std::size_t partitions;
};

class ExternalDifferential
    : public ::testing::TestWithParam<ExternalCase> {};

TEST_P(ExternalDifferential, MatchesReferenceAcrossSpills) {
  const auto [kb, partitions] = GetParam();
  constexpr std::uint32_t kRecordBytes = 32;
  constexpr std::size_t kRecords = 3000;
  std::string data =
      testdata::random_records(kRecords, kRecordBytes, kb, /*seed=*/kb);
  // Duplicate-heavy: repeat every 4th record so equal keys cross runs.
  std::string dups;
  for (std::size_t r = 0; r < kRecords; r += 4)
    dups.append(data, r * kRecordBytes, kRecordBytes);
  data += dups;
  const std::size_t total = data.size() / kRecordBytes;

  // Reference: stable sort of record indices by key prefix.
  std::vector<std::uint64_t> ref(total);
  for (std::uint64_t i = 0; i < total; ++i) ref[i] = i;
  const char* base = data.data();
  std::stable_sort(ref.begin(), ref.end(),
                   [base, kb](std::uint64_t a, std::uint64_t b) {
                     return std::memcmp(base + a * kRecordBytes,
                                        base + b * kRecordBytes, kb) < 0;
                   });

  ThreadPool pool(4);
  ExternalSorterOptions opt;
  opt.record_bytes = kRecordBytes;
  opt.key_bytes = kb;
  opt.partitions = partitions;
  // Tiny budget: forces many spills (and per-partition run files).
  opt.memory_budget_bytes = 257 * kRecordBytes;
  opt.spill_dir = ::testing::TempDir();
  ExternalSorter sorter(pool, opt);
  ASSERT_TRUE(sorter.add(std::span<const char>(data.data(), data.size()))
                  .ok());
  EXPECT_GT(sorter.runs_spilled(), partitions > 1 ? partitions : 1u);

  std::string out;
  auto result = sorter.finish([&out](std::span<const char> slab) {
    out.append(slab.data(), slab.size());
    return Status::Ok();
  });
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_EQ(out.size(), data.size());

  // Key sequence must match the stable reference exactly.
  for (std::uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(std::memcmp(out.data() + i * kRecordBytes,
                          base + ref[i] * kRecordBytes, kb),
              0)
        << "key mismatch at record " << i << " (key_bytes=" << kb
        << " partitions=" << partitions << ")";
  }
  // Whole-record multiset must be preserved (no payload mixups).
  auto record_multiset = [](const std::string& blob) {
    std::vector<std::string> recs;
    for (std::size_t off = 0; off + kRecordBytes <= blob.size();
         off += kRecordBytes)
      recs.push_back(blob.substr(off, kRecordBytes));
    std::sort(recs.begin(), recs.end());
    return recs;
  };
  EXPECT_EQ(record_multiset(out), record_multiset(data));

  // Partitioned spills report partition geometry through MergeStats.
  if (partitions > 1) {
    EXPECT_EQ(result->partitions, partitions);
    EXPECT_GE(result->partition_max_items, result->partition_min_items);
    // Skew is max/mean, so it is at least 1 whenever anything merged and
    // bounded by P (one partition holding everything).
    EXPECT_GE(result->partition_skew(), 1.0);
    EXPECT_LE(result->partition_skew(), double(partitions));
  } else {
    EXPECT_EQ(result->partition_skew(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeyWidthsAndPartitions, ExternalDifferential,
    ::testing::Values(ExternalCase{7, 1}, ExternalCase{8, 1},
                      ExternalCase{9, 1}, ExternalCase{7, 4},
                      ExternalCase{8, 4}, ExternalCase{9, 5}),
    [](const ::testing::TestParamInfo<ExternalCase>& info) {
      return "kb" + std::to_string(info.param.key_bytes) + "_p" +
             std::to_string(info.param.partitions);
    });

}  // namespace
}  // namespace supmr::merge
