// Micro-benchmarks: sorting and merging kernels.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "apps/stripe_runs.hpp"
#include "common/rng.hpp"
#include "containers/combiners.hpp"
#include "containers/hash_container.hpp"
#include "merge/introsort.hpp"
#include "merge/loser_tree.hpp"
#include "merge/partitioned.hpp"
#include "merge/pway.hpp"
#include "merge/sample_sort.hpp"
#include "tests/testdata.hpp"

namespace supmr::merge {
namespace {

// Shared seeded generator (tests/testdata.hpp): the differential merge
// suite draws byte-identical inputs, so bench and test disagree only on
// timing, never on data.
std::vector<std::uint64_t> random_data(std::size_t n, std::uint64_t seed) {
  return testdata::random_u64(n, seed);
}

void BM_Introsort(benchmark::State& state) {
  const auto base = random_data(state.range(0), 1);
  for (auto _ : state) {
    auto v = base;
    introsort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Introsort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_StdSortReference(benchmark::State& state) {
  const auto base = random_data(state.range(0), 1);
  for (auto _ : state) {
    auto v = base;
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdSortReference)->Arg(1 << 14)->Arg(1 << 18);

void BM_LoserTreeMerge(benchmark::State& state) {
  const std::size_t runs = state.range(0);
  const std::size_t per_run = (1 << 18) / runs;
  std::vector<std::vector<std::uint64_t>> data(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    data[r] = random_data(per_run, r + 1);
    std::sort(data[r].begin(), data[r].end());
  }
  std::vector<std::uint64_t> out(runs * per_run);
  for (auto _ : state) {
    std::vector<std::span<const std::uint64_t>> spans;
    for (auto& d : data) spans.emplace_back(d);
    LoserTree<std::uint64_t, std::less<std::uint64_t>> tree(
        spans, std::less<std::uint64_t>{});
    tree.drain(out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * out.size());
}
BENCHMARK(BM_LoserTreeMerge)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_PairwiseMergeSort(benchmark::State& state) {
  const auto base = random_data(1 << 18, 3);
  ThreadPool pool(4);
  for (auto _ : state) {
    auto v = base;
    pairwise_merge_sort(pool, std::span<std::uint64_t>(v),
                        std::less<std::uint64_t>{}, state.range(0));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * base.size());
  state.SetLabel("runs=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PairwiseMergeSort)->Arg(8)->Arg(32);

void BM_ParallelSampleSort(benchmark::State& state) {
  const auto base = random_data(1 << 18, 3);
  ThreadPool pool(4);
  for (auto _ : state) {
    auto v = base;
    parallel_sample_sort(pool, std::span<std::uint64_t>(v),
                         std::less<std::uint64_t>{}, state.range(0));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * base.size());
  state.SetLabel("runs=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ParallelSampleSort)->Arg(8)->Arg(32);

// --------------------------------------------------------------------------
// Merge-phase comparison: single global p-way merge vs per-partition merges
// (docs/merge.md). Both benchmarks time ONLY the merge phase of a sort job
// over the same duplicate-light input (shared seed => byte-identical data):
//   * global: the intermediate container is unsorted, so the merge phase is
//     run formation + one p-way merge round over ALL runs (scratch +
//     copy-back) — parallel_sample_sort, as ExternalSorter sorts a spill;
//   * partitioned: the key-range shuffle already happened at map time (not
//     timed — that cost rides on the map phase), so the merge phase is one
//     stripe sort + loser-tree merge per partition, written straight into
//     the output window — partitioned_merge, the kPartitioned job path.

void BM_MergePhaseGlobalPway(benchmark::State& state) {
  const std::size_t n = 1 << 21;
  const auto base = random_data(n, 42);
  ThreadPool pool(state.range(0));
  for (auto _ : state) {
    auto v = base;
    parallel_sample_sort(pool, std::span<std::uint64_t>(v),
                         std::less<std::uint64_t>{});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_MergePhaseGlobalPway)->Arg(4)->Arg(8)->UseRealTime();

void BM_MergePhasePartitioned(benchmark::State& state) {
  const std::size_t n = 1 << 21;
  const auto base = random_data(n, 42);
  const std::size_t threads = state.range(0);
  ThreadPool pool(threads);
  // --partitions: auto (= contexts) at range(1) == 1; larger multiples
  // trade splitter count for smaller per-stripe sorts.
  const std::size_t P = threads * state.range(1);

  // Map-time shuffle (outside the timed region): bucket into (partition,
  // thread) stripes exactly as PartitionedContainer does during map.
  auto cmp = std::less<std::uint64_t>{};
  const auto splitters = select_splitters(
      std::span<const std::uint64_t>(base.data(), base.size()), P, cmp);
  std::vector<std::vector<std::vector<std::uint64_t>>> stripes(
      splitters.size() + 1, std::vector<std::vector<std::uint64_t>>(threads));
  for (std::size_t i = 0; i < n; ++i) {
    stripes[partition_of(splitters, base[i], cmp)][i % threads].push_back(
        base[i]);
  }

  // `work` persists across iterations so the per-iteration reset is the
  // same flat N-item copy the global variant pays (no reallocation churn).
  auto work = stripes;
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    for (std::size_t p = 0; p < stripes.size(); ++p)
      for (std::size_t t = 0; t < threads; ++t)
        work[p][t].assign(stripes[p][t].begin(), stripes[p][t].end());
    std::vector<std::vector<std::span<std::uint64_t>>> parts(
        splitters.size() + 1);
    for (std::size_t p = 0; p < parts.size(); ++p)
      for (auto& s : work[p])
        if (!s.empty()) parts[p].push_back(std::span<std::uint64_t>(s));
    partitioned_merge(pool, std::move(parts), out.data(), cmp);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel("threads=" + std::to_string(threads) +
                 " partitions=" + std::to_string(splitters.size() + 1));
}
BENCHMARK(BM_MergePhasePartitioned)
    ->Args({4, 1})
    ->Args({4, 16})
    ->Args({8, 1})
    ->Args({8, 16})
    ->UseRealTime();

void BM_PartitionedMergeRuns(benchmark::State& state) {
  // TeraSort's flat kPartitioned merge: 16 runs sorted before timing (the
  // map tasks form them), cut at sampled splitters and merged per partition.
  auto data = random_data(1 << 18, 3);
  ThreadPool pool(4);
  std::vector<std::span<const std::uint64_t>> runs;
  const std::size_t per = data.size() / 16;
  for (std::size_t r = 0; r < 16; ++r) {
    std::sort(data.begin() + r * per, data.begin() + (r + 1) * per);
    runs.push_back(std::span<const std::uint64_t>(data.data() + r * per, per));
  }
  std::vector<std::uint64_t> out(data.size());
  for (auto _ : state) {
    partitioned_merge_runs(pool, runs, out.data(), std::less<std::uint64_t>{},
                           state.range(0));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * data.size());
  state.SetLabel("partitions=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PartitionedMergeRuns)->Arg(4)->Arg(16);

void BM_StripeRunsFoldMerge(benchmark::State& state) {
  // Word count's reduce and merge (apps/stripe_runs.hpp): 4 map stripes of
  // Zipf draws over a 1M-word vocabulary, filled before timing; each
  // iteration sorts every stripe into a run and fold-merges the runs with
  // the p-way kernel on 4 threads.
  constexpr std::size_t kStripes = 4;
  constexpr std::size_t kVocabulary = 1 << 20;
  const auto keys = testdata::key_pool(kVocabulary);
  using Container =
      containers::HashContainer<containers::SumCombiner<std::uint64_t>>;
  Container container;
  container.init(kStripes, /*capacity_hint=*/4096);
  for (std::size_t s = 0; s < kStripes; ++s) {
    for (std::size_t i : testdata::zipf_stream(1 << 20, kVocabulary, s + 1))
      container.emit(s, keys[i], std::uint64_t{1});
  }
  ThreadPool pool(4);
  apps::StripeRuns<Container> runs;
  std::vector<std::pair<std::string, std::uint64_t>> results;
  for (auto _ : state) {
    if (!runs.reduce(pool, container).ok() ||
        !runs.merge(pool, {core::MergeMode::kPWay, 4}, results, nullptr)
             .ok()) {
      state.SkipWithError("thread pool shut down");
      break;
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * container.raw_entries());
  state.SetLabel("entries=" + std::to_string(container.raw_entries()) +
                 " keys=" + std::to_string(results.size()));
}
BENCHMARK(BM_StripeRunsFoldMerge)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace supmr::merge

BENCHMARK_MAIN();
