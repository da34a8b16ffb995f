// Micro-benchmarks: intermediate container hot paths.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "containers/array_container.hpp"
#include "containers/combiners.hpp"
#include "containers/hash_container.hpp"
#include "tests/testdata.hpp"

namespace supmr::containers {
namespace {

std::vector<std::string> make_keys(std::size_t distinct) {
  std::vector<std::string> keys;
  keys.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i)
    keys.push_back("word" + std::to_string(i * 2654435761u % distinct));
  return keys;
}

void BM_ArenaMapInsert(benchmark::State& state) {
  const auto keys = make_keys(state.range(0));
  for (auto _ : state) {
    ArenaHashMap<std::uint64_t> m(1024);
    for (const auto& k : keys) m.find_or_insert(k, 0) += 1;
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_ArenaMapInsert)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_ArenaMapHitLookup(benchmark::State& state) {
  const auto keys = make_keys(1 << 14);
  ArenaHashMap<std::uint64_t> m(1 << 14);
  for (const auto& k : keys) m.find_or_insert(k, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.find(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArenaMapHitLookup);

void BM_HashContainerEmit_WordCountMix(benchmark::State& state) {
  // Zipf-weighted key mix, like real text: mostly combines, few inserts
  // (shared generator: tests/testdata.hpp).
  const auto keys = make_keys(10000);
  std::vector<const std::string*> stream;
  stream.reserve(1 << 16);
  for (std::size_t i : testdata::zipf_stream(1 << 16, 10000, 1))
    stream.push_back(&keys[i]);
  for (auto _ : state) {
    HashContainer<SumCombiner<std::uint64_t>> c;
    c.init(1, 1 << 14);
    for (const auto* k : stream) c.emit(0, *k, 1);
    benchmark::DoNotOptimize(c.raw_entries());
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_HashContainerEmit_WordCountMix);

void BM_HashContainerReduce(benchmark::State& state) {
  HashContainer<SumCombiner<std::uint64_t>> c;
  const std::size_t stripes = 4;
  c.init(stripes, 1 << 12);
  const auto keys = make_keys(1 << 14);
  for (std::size_t s = 0; s < stripes; ++s)
    for (const auto& k : keys) c.emit(s, k, 1);
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < 16; ++p)
      total += c.reduce_partition(p, 16).size();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_HashContainerReduce);

void BM_ArrayContainerWrite(benchmark::State& state) {
  const std::uint64_t records = state.range(0);
  std::vector<char> record(100, 'r');
  for (auto _ : state) {
    ArrayContainer c;
    c.init(100);
    const std::uint64_t base = c.claim(records);
    for (std::uint64_t r = 0; r < records; ++r)
      c.write_record(base + r, std::span<const char>(record.data(), 100));
    benchmark::DoNotOptimize(c.mutable_record(base));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * records);
  state.SetBytesProcessed(state.iterations() * records * 100);
}
BENCHMARK(BM_ArrayContainerWrite)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace
}  // namespace supmr::containers

BENCHMARK_MAIN();
