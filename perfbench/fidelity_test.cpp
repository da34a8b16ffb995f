// Wrapper fidelity: timing a job through the benchmark's wrappers must not
// change what the job computes.
//   1. Every workload, traced and untraced, at a small size: each job's
//      output equals the oracle's bytes, the traced and untraced outputs
//      hash the same, and the traced jobs really recorded spans.
//   2. TracedApp / TracedDevice / TracedSource forward every virtual: a
//      probe returns a non-default value from each, so an override dropped
//      from a wrapper (shard_kind, use_container, ...) falls back to the
//      base default and fails here instead of silently changing the program.
//   3. The host block refuses Debug and sanitizer builds.
#include <cstdio>
#include <set>
#include <string>

#include "host.hpp"
#include "layers.hpp"
#include "storage/mem_device.hpp"
#include "ingest/record_format.hpp"
#include "workloads.hpp"

using namespace perfbench;
using namespace supmr;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

void workloads_match_oracle() {
  for (const char* name : kWorkloadNames) {
    std::unique_ptr<Workload> w = make_workload(name, /*small=*/true);
    CHECK(w != nullptr);
    CHECK(w->generate(11).ok());
    const Measurement plain = w->measure(0.0, nullptr);
    SpanLog log;
    const Measurement traced = w->measure(0.0, &log);
    CHECK(!plain.jobs.empty() && !traced.jobs.empty());
    std::set<std::size_t> plain_digests, traced_digests;
    for (const JobSample& s : plain.jobs) {
      CHECK(!s.failed);
      plain_digests.insert(s.digest);
    }
    const std::vector<Span> spans = log.snapshot();
    for (const JobSample& s : traced.jobs) {
      CHECK(!s.failed);
      traced_digests.insert(s.digest);
      const Metrics m = job_layers(spans, s.job);
      CHECK(m.count("core.job_s") == 1 && m.at("core.job_s") > 0.0);
      CHECK(m.count("map.tasks") == 1 && m.at("map.tasks") > 0.0);
    }
    // The sequential workloads rerun one input, so every output hashes the
    // same; jobmix draws from several inputs, each checked by the oracle.
    if (std::string(name) != "jobmix") {
      CHECK(plain_digests.size() == 1);
      CHECK(plain_digests == traced_digests);
    }
    std::printf("%-10s %zu plain + %zu traced jobs match the oracle\n", name,
                plain.jobs.size(), traced.jobs.size());
  }
}

// Returns a non-default value from every virtual and records the calls.
class ProbeApp final : public core::Application {
 public:
  void init(std::size_t n) override { init_arg = n; }
  Status prepare_round(const ingest::IngestChunk& chunk) override {
    prepared = chunk.index;
    return Status::Internal("probe prepare");
  }
  std::size_t round_tasks() const override { return 7; }
  void map_task(std::size_t task, std::size_t thread_id) override {
    mapped = task * 100 + thread_id;
  }
  Status reduce(ThreadPool&, std::size_t partitions) override {
    reduced = partitions;
    return Status::Internal("probe reduce");
  }
  Status merge(ThreadPool&, const core::MergePlan& plan,
               merge::MergeStats* stats) override {
    stats->partitions = plan.partitions + 40;
    return Status::Internal("probe merge");
  }
  std::uint64_t result_count() const override { return 1234; }
  core::CombinerKind combiner_kind() const override {
    return core::CombinerKind::kMax;
  }
  core::ShardKind shard_kind() const override {
    return core::ShardKind::kAligned;
  }
  Status use_container(core::ContainerMode mode) override {
    container = mode;
    return Status::Ok();
  }
  core::CombineStats combine_stats() const override {
    core::CombineStats s;
    s.emits = 99;
    return s;
  }
  std::string canonical_output() const override { return "probe-bytes"; }

  std::size_t init_arg = 0;
  std::uint64_t prepared = 0;
  std::size_t mapped = 0;
  std::size_t reduced = 0;
  core::ContainerMode container = core::ContainerMode::kDefault;
};

void app_forwards_every_virtual() {
  SpanLog log;
  Scope scope{&log, log.next_job(), 0, log.open("job", "core", 1, 0, -1)};
  auto owned = std::make_unique<ProbeApp>();
  ProbeApp& probe = *owned;
  TracedApp app(std::move(owned), scope);
  core::Application& base = app;
  ThreadPool pool(1);

  base.init(3);
  CHECK(probe.init_arg == 3);
  ingest::IngestChunk chunk;
  chunk.index = 5;
  CHECK(base.prepare_round(chunk).message() == "probe prepare");
  CHECK(probe.prepared == 5);
  CHECK(base.round_tasks() == 7);
  base.map_task(4, 2);
  CHECK(probe.mapped == 402);
  CHECK(base.reduce(pool, 9).message() == "probe reduce");
  CHECK(probe.reduced == 9);
  merge::MergeStats stats;
  CHECK(base.merge(pool, core::MergePlan{core::MergeMode::kPWay, 2}, &stats)
            .message() == "probe merge");
  CHECK(stats.partitions == 42);
  CHECK(base.result_count() == 1234);
  CHECK(base.combiner_kind() == core::CombinerKind::kMax);
  CHECK(base.shard_kind() == core::ShardKind::kAligned);
  CHECK(base.use_container(core::ContainerMode::kCombining).ok());
  CHECK(probe.container == core::ContainerMode::kCombining);
  CHECK(base.combine_stats().emits == 99);
  CHECK(base.canonical_output() == "probe-bytes");
  CHECK(log.snapshot().size() > 1);  // the calls were timed
}

void device_and_source_forward() {
  SpanLog log;
  Scope scope{&log, log.next_job(), 0, log.open("job", "core", 1, 0, -1)};
  auto inner = std::make_shared<storage::MemDevice>(
      std::string("alpha\nbeta\ngamma\n"), "probe-device");
  TracedDevice dev(inner, scope);
  const storage::Device& base = dev;
  CHECK(base.size() == inner->size());
  CHECK(base.name() == "probe-device");
  CHECK(base.supports_views());
  CHECK(base.view_at(6, 4).data() == inner->view_at(6, 4).data());
  CHECK(base.model().bandwidth_bps == inner->model().bandwidth_bps);
  char buf[5] = {};
  auto n = base.read_at(6, std::span<char>(buf, 4));
  CHECK(n.ok() && *n == 4 && std::string(buf, 4) == "beta");

  ingest::SingleDeviceSource plain(inner,
                                   std::make_shared<ingest::LineFormat>(), 8);
  TracedSource src(plain, scope);
  const ingest::IngestSource& sbase = src;
  CHECK(sbase.total_bytes() == plain.total_bytes());
  CHECK(sbase.model().bandwidth_bps == plain.model().bandwidth_bps);
  auto traced_plan = sbase.plan();
  auto plain_plan = plain.plan();
  CHECK(traced_plan.ok() && plain_plan.ok() &&
        traced_plan->size() == plain_plan->size());
  ingest::IngestChunk a, b;
  CHECK(sbase.read_chunk(plain_plan->front(), a).ok());
  CHECK(plain.read_chunk(plain_plan->front(), b).ok());
  CHECK(a.data == b.data);
}

void host_refuses_unoptimised_builds() {
  Host h = this_host();
  h.sanitizer = "none";
  h.build_type = "RelWithDebInfo";
  CHECK(baseline_refusal(h).empty());
  h.build_type = "Release";
  CHECK(baseline_refusal(h).empty());
  h.build_type = "Debug";
  CHECK(!baseline_refusal(h).empty());
  h.build_type = "";
  CHECK(!baseline_refusal(h).empty());
  h.build_type = "Release";
  h.sanitizer = "address,undefined";
  CHECK(!baseline_refusal(h).empty());
}

}  // namespace

int main() {
  app_forwards_every_virtual();
  device_and_source_forward();
  host_refuses_unoptimised_builds();
  workloads_match_oracle();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_fidelity_test: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_fidelity_test: ok\n");
  return 0;
}
