// Application-level tests: word count, TeraSort, grep, inverted index —
// each validated against an independent reference computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "apps/doc_term_count.hpp"
#include "apps/external_word_count.hpp"
#include "apps/grep.hpp"
#include "apps/histogram.hpp"
#include "apps/inverted_index.hpp"
#include "apps/pair_count.hpp"
#include "apps/tera_sort.hpp"
#include "apps/tokenize.hpp"
#include "apps/word_count.hpp"
#include "common/rng.hpp"
#include "core/job.hpp"
#include "core/replay.hpp"
#include "ingest/adaptive.hpp"
#include "merge/external_sorter.hpp"
#include "storage/mem_device.hpp"
#include "wload/numeric.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace supmr::apps {
namespace {

using core::JobConfig;
using core::MapReduceJob;
using core::MergeMode;
using ingest::LineFormat;
using ingest::MultiFileSource;
using ingest::SingleDeviceSource;
using storage::MemDevice;

std::shared_ptr<const storage::Device> mem(std::string s,
                                           std::string name = "mem") {
  return std::make_shared<MemDevice>(std::move(s), std::move(name));
}

JobConfig small_config() {
  JobConfig cfg;
  cfg.num_map_threads = 4;
  cfg.num_reduce_threads = 2;
  return cfg;
}

// Reference word counter using the same tokenizer.
std::map<std::string, std::uint64_t> reference_counts(
    const std::string& text) {
  std::map<std::string, std::uint64_t> counts;
  tokenize_words(std::span<const char>(text.data(), text.size()),
                 [&](std::string_view w) { ++counts[std::string(w)]; });
  return counts;
}

// ---------------------------------------------------------------- tokenize

TEST(Tokenize, LowercasesAndSplitsOnNonAlnum) {
  std::vector<std::string> words;
  const std::string text = "Hello, World! foo_bar x123\ntail";
  tokenize_words(std::span<const char>(text.data(), text.size()),
                 [&](std::string_view w) { words.emplace_back(w); });
  EXPECT_EQ(words, (std::vector<std::string>{"hello", "world", "foo", "bar",
                                             "x123", "tail"}));
}

TEST(Tokenize, EmptyAndAllDelims) {
  int count = 0;
  const std::string text = " .,;\n\t ";
  tokenize_words(std::span<const char>(text.data(), text.size()),
                 [&](std::string_view) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(Tokenize, TruncatesPathologicalWords) {
  std::string text(10 * kMaxWord, 'a');
  std::vector<std::string> words;
  tokenize_words(std::span<const char>(text.data(), text.size()),
                 [&](std::string_view w) { words.emplace_back(w); });
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0].size(), kMaxWord);
}

TEST(SplitText, NeverSplitsMidWord) {
  const std::string text = "alpha beta gamma delta epsilon zeta";
  auto splits = split_text(std::span<const char>(text.data(), text.size()), 4);
  ASSERT_GE(splits.size(), 2u);
  std::size_t covered = 0;
  for (const auto& s : splits) {
    covered += s.size();
    if (s.data() + s.size() < text.data() + text.size()) {
      // Split boundary must fall on a non-word char.
      EXPECT_FALSE(is_word_char(s.data()[s.size()]))
          << "split mid-word";
    }
  }
  EXPECT_EQ(covered, text.size());
}

// -------------------------------------------------------------- word count

TEST(WordCount, MatchesReferenceOriginalRuntime) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 64 * 1024;
  const std::string text = wload::generate_text(cfg);
  const auto expected = reference_counts(text);

  WordCountApp app;
  SingleDeviceSource src(mem(text), std::make_shared<LineFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok()) << result.status().to_string();

  ASSERT_EQ(app.results().size(), expected.size());
  // Results are sorted by word; expected (std::map) iterates in the same
  // order, so the full sequence must match exactly.
  std::size_t i = 0;
  for (const auto& [word, count] : expected) {
    EXPECT_EQ(app.results()[i].first, word);
    EXPECT_EQ(app.results()[i].second, count);
    ++i;
  }
  EXPECT_EQ(result->result_count, expected.size());
}

TEST(WordCount, ChunkedEqualsUnchunked) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 128 * 1024;
  const std::string text = wload::generate_text(cfg);

  WordCountApp unchunked;
  SingleDeviceSource src0(mem(text), std::make_shared<LineFormat>(), 0);
  MapReduceJob job0(unchunked, src0, small_config());
  ASSERT_TRUE(job0.run(core::ExecMode::kOriginal).ok());

  WordCountApp chunked;
  SingleDeviceSource src1(mem(text), std::make_shared<LineFormat>(), 9973);
  MapReduceJob job1(chunked, src1, small_config());
  auto result = job1.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_GT(result->chunks, 2u);
  EXPECT_EQ(result->map_rounds, result->chunks);

  EXPECT_EQ(chunked.results(), unchunked.results());
  EXPECT_EQ(chunked.words_mapped(), unchunked.words_mapped());
}

TEST(WordCount, PairwiseAndPwayMergeAgree) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 32 * 1024;
  const std::string text = wload::generate_text(cfg);

  JobConfig cfg_pway = small_config();
  cfg_pway.merge_mode = MergeMode::kPWay;
  JobConfig cfg_pair = small_config();
  cfg_pair.merge_mode = MergeMode::kPairwise;

  WordCountApp a, b;
  SingleDeviceSource src_a(mem(text), std::make_shared<LineFormat>(), 0);
  SingleDeviceSource src_b(mem(text), std::make_shared<LineFormat>(), 0);
  MapReduceJob ja(a, src_a, cfg_pway), jb(b, src_b, cfg_pair);
  ASSERT_TRUE(ja.run(core::ExecMode::kOriginal).ok());
  ASSERT_TRUE(jb.run(core::ExecMode::kOriginal).ok());
  EXPECT_EQ(a.results(), b.results());
}

TEST(WordCount, EmptyInput) {
  WordCountApp app;
  SingleDeviceSource src(mem(""), std::make_shared<LineFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(app.results().empty());
}

TEST(WordCount, SingleThreadConfig) {
  JobConfig cfg;
  cfg.num_map_threads = 1;
  cfg.num_reduce_threads = 1;
  WordCountApp app;
  SingleDeviceSource src(mem("a b a\nc a b\n"),
                         std::make_shared<LineFormat>(), 4);
  MapReduceJob job(app, src, cfg);
  ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
  ASSERT_EQ(app.results().size(), 3u);
  EXPECT_EQ(app.results()[0], (WordCountApp::Result{"a", 3}));
  EXPECT_EQ(app.results()[1], (WordCountApp::Result{"b", 2}));
  EXPECT_EQ(app.results()[2], (WordCountApp::Result{"c", 1}));
}

// ---------------------------------------------------------------- TeraSort

wload::TeraGenConfig tiny_teragen(std::uint64_t records, std::uint64_t seed) {
  wload::TeraGenConfig cfg;
  cfg.num_records = records;
  cfg.seed = seed;
  return cfg;
}

void expect_terasorted(std::span<const char> sorted, const std::string& input,
                       const wload::TeraGenConfig& cfg) {
  ASSERT_EQ(sorted.size(), input.size());
  // Sorted by key prefix.
  for (std::uint64_t r = 1; r < cfg.num_records; ++r) {
    EXPECT_LE(std::memcmp(sorted.data() + (r - 1) * cfg.record_bytes,
                          sorted.data() + r * cfg.record_bytes,
                          cfg.key_bytes),
              0);
  }
  // Same multiset of records: compare sorted lists of whole records.
  std::vector<std::string_view> in_recs, out_recs;
  for (std::uint64_t r = 0; r < cfg.num_records; ++r) {
    in_recs.emplace_back(input.data() + r * cfg.record_bytes,
                         cfg.record_bytes);
    out_recs.emplace_back(sorted.data() + r * cfg.record_bytes,
                          cfg.record_bytes);
  }
  std::sort(in_recs.begin(), in_recs.end());
  std::sort(out_recs.begin(), out_recs.end());
  EXPECT_EQ(in_recs, out_recs);
}

void expect_terasorted(const TeraSortApp& app, const std::string& input,
                       const wload::TeraGenConfig& cfg) {
  expect_terasorted(std::span<const char>(app.sorted_data()), input, cfg);
}

// TeraGen records whose keys all share their first 8 bytes (0x00 and bytes
// >= 0x80 among them), with random bytes after that. TeraGen's own random
// keys never share 8 bytes, so only inputs like this make every comparison
// take the key-prefix comparator's memcmp fallback. The oracle cannot catch
// a fallback bug on its own: ref::run_ref calls the app's own merge().
std::string shared_prefix_input(const wload::TeraGenConfig& cfg) {
  static constexpr char kStem[8] = {'\x00', '\x80', '\xff', '\x7f',
                                    'k',    '\x00', '\x81', '\x01'};
  std::string input = wload::teragen_to_string(cfg);
  Xoshiro256 rng(cfg.seed);
  for (std::uint64_t r = 0; r < cfg.num_records; ++r) {
    char* key = input.data() + r * cfg.record_bytes;
    std::memcpy(key, kStem, sizeof(kStem));
    for (std::uint32_t k = sizeof(kStem); k < cfg.key_bytes; ++k)
      key[k] = static_cast<char>(rng.uniform(256));
  }
  return input;
}

TEST(TeraSort, SortsOriginalRuntime) {
  const auto cfg = tiny_teragen(3000, 1);
  const std::string input = wload::teragen_to_string(cfg);
  TeraSortApp app;
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::CrlfFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->result_count, cfg.num_records);
  EXPECT_EQ(app.malformed_records(), 0u);
  expect_terasorted(app, input, cfg);
}

TEST(TeraSort, ChunkedEqualsUnchunked) {
  const auto cfg = tiny_teragen(5000, 2);
  const std::string input = wload::teragen_to_string(cfg);

  TeraSortApp a, b;
  SingleDeviceSource src_a(mem(input),
                           std::make_shared<ingest::CrlfFormat>(), 0);
  SingleDeviceSource src_b(mem(input),
                           std::make_shared<ingest::CrlfFormat>(), 37700);
  MapReduceJob ja(a, src_a, small_config()), jb(b, src_b, small_config());
  ASSERT_TRUE(ja.run(core::ExecMode::kOriginal).ok());
  auto rb = jb.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(rb.ok());
  EXPECT_GT(rb->chunks, 5u);
  EXPECT_EQ(a.sorted_data(), b.sorted_data());
  EXPECT_EQ(a.key_checksum(), b.key_checksum());
}

TEST(TeraSort, PairwiseMergeModeSortsToo) {
  const auto cfg = tiny_teragen(2000, 3);
  const std::string input = wload::teragen_to_string(cfg);
  JobConfig jc = small_config();
  jc.merge_mode = MergeMode::kPairwise;
  TeraSortApp app;
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::CrlfFormat>(), 0);
  MapReduceJob job(app, src, jc);
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->merge_stats.num_rounds(), 1u);  // iterative rounds
  expect_terasorted(app, input, cfg);
}

TEST(TeraSort, PwayMergeSingleRound) {
  const auto cfg = tiny_teragen(2000, 4);
  const std::string input = wload::teragen_to_string(cfg);
  TeraSortApp app;
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::CrlfFormat>(), 0);
  MapReduceJob job(app, src, small_config());  // default kPWay
  auto result = job.run(core::ExecMode::kOriginal);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->merge_stats.num_rounds(), 1u);
}

TEST(TeraSort, RejectsTornChunk) {
  TeraSortApp app;
  // 150 bytes is not a whole number of 100-byte records.
  SingleDeviceSource src(mem(std::string(150, 'x')),
                         std::make_shared<ingest::FixedFormat>(1), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TeraSort, CountsMalformedRecords) {
  const auto cfg = tiny_teragen(100, 5);
  std::string input = wload::teragen_to_string(cfg);
  // Corrupt the terminator of record 3.
  input[3 * cfg.record_bytes + cfg.record_bytes - 1] = 'X';
  TeraSortApp app;
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::FixedFormat>(100), 0);
  MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  EXPECT_EQ(app.malformed_records(), 1u);
}

TEST(TeraSort, SharedPrefixKeysSortInEveryMergeMode) {
  const auto cfg = tiny_teragen(3000, 11);
  const std::string input = shared_prefix_input(cfg);
  for (MergeMode mode :
       {MergeMode::kPairwise, MergeMode::kPWay, MergeMode::kPartitioned}) {
    SCOPED_TRACE(core::merge_mode_name(mode));
    JobConfig jc = small_config();
    jc.merge_mode = mode;
    TeraSortApp app;
    SingleDeviceSource src(mem(input),
                           std::make_shared<ingest::FixedFormat>(100), 37700);
    MapReduceJob job(app, src, jc);
    auto result = job.run(core::ExecMode::kIngestMR);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(app.malformed_records(), 0u);
    expect_terasorted(app, input, cfg);
  }
}

// Runs a flat-container TeraSort job over `input` in 100-byte records, with
// `chunk_bytes` chunks as the map rounds (the adaptive mode gets a fixed
// chunk-size controller, so its rounds match the other two modes').
StatusOr<core::JobResult> run_terasort(TeraSortApp& app,
                                       const std::string& input,
                                       core::ExecMode exec, MergeMode merge,
                                       std::uint64_t chunk_bytes) {
  JobConfig jc = small_config();
  jc.merge_mode = merge;
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::FixedFormat>(100),
                         chunk_bytes);
  MapReduceJob job(app, src, jc);
  MemDevice dev(input);
  ingest::FixedFormat format(100);
  ingest::FixedChunkController controller(chunk_bytes);
  if (exec == core::ExecMode::kAdaptive)
    job.set_adaptive(dev, format, controller);
  return job.run(exec);
}

constexpr core::ExecMode kExecModes[] = {core::ExecMode::kOriginal,
                                         core::ExecMode::kIngestMR,
                                         core::ExecMode::kAdaptive};
constexpr MergeMode kMergeModes[] = {MergeMode::kPairwise, MergeMode::kPWay,
                                     MergeMode::kPartitioned};

// Map forms one sorted run per task and round; merge only merges them. Every
// merge mode in every exec mode must produce exactly std::stable_sort's
// order, over rounds with fewer records than mappers (3 records, 4 mappers),
// rounds that do not divide by the mapper count (13 records), and a last
// round of one record (1001 = 4 x 250 + 1).
TEST(TeraSort, MapFormedRunsMatchStableSortInEveryMode) {
  const auto cfg = tiny_teragen(1001, 21);
  const std::string input = wload::teragen_to_string(cfg);
  std::vector<std::string> records;
  for (std::uint64_t r = 0; r < cfg.num_records; ++r)
    records.push_back(input.substr(r * cfg.record_bytes, cfg.record_bytes));
  std::stable_sort(records.begin(), records.end(),
                   [&](const std::string& a, const std::string& b) {
                     return std::memcmp(a.data(), b.data(), cfg.key_bytes) < 0;
                   });
  std::string expected;
  for (std::uint64_t r = 0; r < records.size(); ++r) {
    // Distinct keys, so the order is fully determined.
    if (r > 0) {
      ASSERT_LT(std::memcmp(records[r - 1].data(), records[r].data(),
                            cfg.key_bytes),
                0);
    }
    expected += records[r];
  }

  std::uint64_t checksum = 0;
  for (MergeMode merge : kMergeModes) {
    for (core::ExecMode exec : kExecModes) {
      for (std::uint64_t chunk_bytes : {300u, 1300u, 25000u}) {
        SCOPED_TRACE(std::string(core::merge_mode_name(merge)) + " " +
                     std::string(core::exec_mode_name(exec)) + " chunk " +
                     std::to_string(chunk_bytes));
        TeraSortApp app;
        auto result = run_terasort(app, input, exec, merge, chunk_bytes);
        ASSERT_TRUE(result.ok()) << result.status().to_string();
        EXPECT_EQ(result->chunks, (input.size() + chunk_bytes - 1) /
                                      chunk_bytes);
        EXPECT_EQ(result->result_count, cfg.num_records);
        EXPECT_TRUE(std::string_view(app.sorted_data().data(),
                                     app.sorted_data().size()) == expected);
        if (checksum == 0) checksum = app.key_checksum();
        EXPECT_EQ(app.key_checksum(), checksum);
        if (merge == MergeMode::kPairwise) {
          EXPECT_GT(result->merge_stats.num_rounds(), 1u);
        } else {
          EXPECT_EQ(result->merge_stats.num_rounds(), 1u);
        }
      }
    }
  }
  EXPECT_NE(checksum, 0u);
}

// Keys that share their first 8 bytes, cut into 13-record rounds: equal
// prefixes now meet across runs formed in different rounds, so the merges
// themselves (not only the per-task sorts) take the memcmp fallback.
TEST(TeraSort, SharedPrefixKeysSortAcrossRoundsInEveryMode) {
  const auto cfg = tiny_teragen(3000, 14);
  const std::string input = shared_prefix_input(cfg);
  for (MergeMode merge : kMergeModes) {
    for (core::ExecMode exec : kExecModes) {
      SCOPED_TRACE(std::string(core::merge_mode_name(merge)) + " " +
                   std::string(core::exec_mode_name(exec)));
      TeraSortApp app;
      auto result = run_terasort(app, input, exec, merge, 1300);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_GT(result->chunks, 200u);
      EXPECT_EQ(app.malformed_records(), 0u);
      expect_terasorted(app, input, cfg);
    }
  }
}

TEST(TeraSort, SharedPrefixKeysSortInMapTimePartitions) {
  const auto cfg = tiny_teragen(3000, 12);
  const std::string input = shared_prefix_input(cfg);
  JobConfig jc = small_config();
  jc.merge_mode = MergeMode::kPartitioned;
  TeraSortOptions opt;
  opt.partitions = jc.merge_partitions();
  TeraSortApp app(opt);
  SingleDeviceSource src(mem(input),
                         std::make_shared<ingest::FixedFormat>(100), 37700);
  MapReduceJob job(app, src, jc);
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  // The splitters differ only past the shared 8 bytes.
  EXPECT_GT(app.partitioned_container().num_splitters(), 0u);
  expect_terasorted(app, input, cfg);
}

TEST(TeraSort, SharedPrefixKeysSortThroughExternalSorterSpills) {
  const auto cfg = tiny_teragen(3000, 13);
  const std::string input = shared_prefix_input(cfg);
  ThreadPool pool(2);
  for (std::size_t partitions : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    merge::ExternalSorterOptions opt;
    opt.record_bytes = cfg.record_bytes;
    opt.key_bytes = cfg.key_bytes;
    opt.memory_budget_bytes = 20000;  // 300 KB input: ~15 spills
    opt.spill_dir = ::testing::TempDir();
    opt.merge_read_bytes = 4096;
    opt.partitions = partitions;
    merge::ExternalSorter sorter(pool, opt);
    ASSERT_TRUE(
        sorter.add(std::span<const char>(input.data(), input.size())).ok());
    EXPECT_GT(sorter.runs_spilled(), 1u);
    std::string sorted;
    auto stats = sorter.finish([&](std::span<const char> slab) {
      sorted.append(slab.data(), slab.size());
      return Status::Ok();
    });
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    expect_terasorted(std::span<const char>(sorted), input, cfg);
  }
}

// -------------------------------------------------------------------- grep

TEST(CountOccurrences, NonOverlapping) {
  EXPECT_EQ(count_occurrences("aaaa", "aa"), 2u);
  EXPECT_EQ(count_occurrences("abcabc", "abc"), 2u);
  EXPECT_EQ(count_occurrences("abc", ""), 0u);
  EXPECT_EQ(count_occurrences("ab", "abc"), 0u);
}

TEST(Grep, CountsPatternsAcrossLines) {
  const std::string text =
      "the cat sat\n"
      "on the mat\n"
      "cat and dog\n";
  GrepApp app({"cat", "the", "zebra"});
  SingleDeviceSource src(mem(text), std::make_shared<LineFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  ASSERT_EQ(app.results().size(), 2u);  // zebra absent
  EXPECT_EQ(app.results()[0], (GrepApp::Result{"cat", 2}));
  EXPECT_EQ(app.results()[1], (GrepApp::Result{"the", 2}));
  EXPECT_EQ(app.lines_scanned(), 3u);
}

TEST(Grep, ChunkedEqualsUnchunked) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 64 * 1024;
  const std::string text = wload::generate_text(cfg);
  GrepApp a({"aa", "the", "qq"});
  GrepApp b({"aa", "the", "qq"});
  SingleDeviceSource src_a(mem(text), std::make_shared<LineFormat>(), 0);
  SingleDeviceSource src_b(mem(text), std::make_shared<LineFormat>(), 4096);
  MapReduceJob ja(a, src_a, small_config()), jb(b, src_b, small_config());
  ASSERT_TRUE(ja.run(core::ExecMode::kOriginal).ok());
  ASSERT_TRUE(jb.run(core::ExecMode::kIngestMR).ok());
  EXPECT_EQ(a.results(), b.results());
  EXPECT_EQ(a.lines_scanned(), b.lines_scanned());
}

// ---------------------------------------------------------- inverted index

TEST(InvertedIndex, BuildsPostings) {
  std::vector<std::shared_ptr<const storage::Device>> files = {
      mem("apple banana\n", "f0"), mem("banana cherry\n", "f1"),
      mem("apple\n", "f2")};
  InvertedIndexApp app;
  MultiFileSource src(files, 2);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_EQ(app.index().size(), 3u);
  EXPECT_EQ(app.index()[0].word, "apple");
  EXPECT_EQ(app.index()[0].files, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(app.index()[1].word, "banana");
  EXPECT_EQ(app.index()[1].files, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(app.index()[2].word, "cherry");
  EXPECT_EQ(app.index()[2].files, (std::vector<std::uint32_t>{1}));
}

TEST(InvertedIndex, RequiresFileSpans) {
  InvertedIndexApp app;
  SingleDeviceSource src(mem("words here\n"),
                         std::make_shared<LineFormat>(), 0);
  MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kOriginal);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(InvertedIndex, ChunkingInvariantToFilesPerChunk) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = 2048;
  auto files = wload::generate_text_files(cfg, 12, 2048);
  std::vector<std::vector<InvertedIndexApp::Posting>> outputs;
  for (std::size_t per_chunk : {1u, 3u, 12u}) {
    InvertedIndexApp app;
    MultiFileSource src(files, per_chunk);
    MapReduceJob job(app, src, small_config());
    ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
    outputs.push_back(app.index());
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    ASSERT_EQ(outputs[i].size(), outputs[0].size());
    for (std::size_t j = 0; j < outputs[0].size(); ++j) {
      EXPECT_EQ(outputs[i][j].word, outputs[0][j].word);
      EXPECT_EQ(outputs[i][j].files, outputs[0][j].files);
    }
  }
}

TEST(InvertedIndex, DuplicateWordsInOneFileDeduplicated) {
  std::vector<std::shared_ptr<const storage::Device>> files = {
      mem("dup dup dup\n", "f0")};
  InvertedIndexApp app;
  MultiFileSource src(files, 1);
  MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
  ASSERT_EQ(app.index().size(), 1u);
  EXPECT_EQ(app.index()[0].files, (std::vector<std::uint32_t>{0}));
}

// ------------------------------------------------------------- app reuse

// One app object run twice through MapReduceJob::run must give the same
// output both times: init() starts every job from an empty container.
TEST(AppReuse, WordCountDoesNotCountTheFirstJobAgain) {
  const std::string text = "a b a\nc a b\n";
  WordCountApp app;
  SingleDeviceSource src(mem(text), std::make_shared<LineFormat>(), 0);
  for (int job_index = 0; job_index < 2; ++job_index) {
    MapReduceJob job(app, src, small_config());
    ASSERT_TRUE(job.run(core::ExecMode::kIngestMR).ok());
    ASSERT_FALSE(app.results().empty());
    EXPECT_EQ(app.results()[0], (WordCountApp::Result{"a", 3}))
        << "job " << job_index;
  }
}

TEST(AppReuse, EveryConformanceAppGivesTheSameOutputTwice) {
  wload::TextCorpusConfig text_cfg;
  text_cfg.total_bytes = 48 * 1024;
  const std::string text = wload::generate_text(text_cfg);
  auto files = wload::generate_text_files(text_cfg, 6, 4096);
  wload::NumericConfig num_cfg;
  num_cfg.num_values = 5000;
  const std::string numbers = wload::generate_numeric(num_cfg);
  const std::string records =
      wload::teragen_to_string(tiny_teragen(2000, 5));

  auto line_source = [&](const std::string& data) {
    return std::make_unique<SingleDeviceSource>(
        mem(data), std::make_shared<LineFormat>(), 8 * 1024);
  };
  containers::SpillingHashContainer::Options spill;
  spill.memory_budget_bytes = 16 * 1024;
  spill.spill_dir = ::testing::TempDir();

  struct Cell {
    std::string name;
    std::function<std::unique_ptr<core::Application>()> make_app;
    std::function<std::unique_ptr<ingest::IngestSource>()> make_source;
    core::ContainerMode container = core::ContainerMode::kDefault;
  };
  const auto text_source = [&] { return line_source(text); };
  const auto file_source = [&] {
    return std::make_unique<MultiFileSource>(files, 2);
  };
  std::vector<Cell> cells = {
      {"wordcount", [] { return std::make_unique<WordCountApp>(); },
       text_source},
      {"wordcount", [] { return std::make_unique<WordCountApp>(); },
       text_source, core::ContainerMode::kCombining},
      {"xwordcount",
       [&] { return std::make_unique<ExternalWordCountApp>(spill); },
       text_source},
      {"paircount", [] { return std::make_unique<PairCountApp>(); },
       text_source},
      {"paircount", [] { return std::make_unique<PairCountApp>(); },
       text_source, core::ContainerMode::kCombining},
      {"grep",
       [] {
         return std::make_unique<GrepApp>(
             std::vector<std::string>{"th", "he", "zz"});
       },
       text_source},
      {"histogram", [] { return std::make_unique<HistogramApp>(); },
       [&] { return line_source(numbers); }},
      {"histogram", [] { return std::make_unique<HistogramApp>(); },
       [&] { return line_source(numbers); }, core::ContainerMode::kCombining},
      {"index", [] { return std::make_unique<InvertedIndexApp>(); },
       file_source},
      {"index", [] { return std::make_unique<InvertedIndexApp>(); },
       file_source, core::ContainerMode::kCombining},
      {"doctermcount", [] { return std::make_unique<DocTermCountApp>(); },
       file_source},
      {"doctermcount", [] { return std::make_unique<DocTermCountApp>(); },
       file_source, core::ContainerMode::kCombining},
      {"sort", [] { return std::make_unique<TeraSortApp>(); },
       [&] {
         return std::make_unique<SingleDeviceSource>(
             mem(records), std::make_shared<ingest::CrlfFormat>(), 32 * 100);
       }},
      {"sort",
       [] {
         TeraSortOptions opt;
         opt.partitions = 3;
         return std::make_unique<TeraSortApp>(opt);
       },
       [&] {
         return std::make_unique<SingleDeviceSource>(
             mem(records), std::make_shared<ingest::CrlfFormat>(), 32 * 100);
       }},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.name + " container=" +
                 std::string(core::container_mode_name(cell.container)));
    auto app = cell.make_app();
    ASSERT_TRUE(app->use_container(cell.container).ok());
    auto source = cell.make_source();
    std::vector<std::string> outputs;
    for (int job_index = 0; job_index < 2; ++job_index) {
      MapReduceJob job(*app, *source, small_config());
      auto result = job.run(core::ExecMode::kIngestMR);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      outputs.push_back(app->canonical_output());
    }
    EXPECT_FALSE(outputs[0].empty());
    EXPECT_EQ(outputs[1], outputs[0]);
  }
}

}  // namespace
}  // namespace supmr::apps
