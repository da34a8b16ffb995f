// supmr_perfbench: runs one workload for one seed and prints every metric
// by name with its unit, then one JSON result line.
//
//   supmr_perfbench --workload wordcount|terasort|shuffle|jobmix --seed N
//                   --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics of untraced jobs. --trace 1 runs
// the workload untraced and then traced (half the time each) and reports
// the per-layer metrics, the bottleneck verdict and the tracing overhead;
// with --trace-out it writes the traced jobs' spans as Chrome-trace JSON.
// Exit code 1 means a job failed or differed from the oracle, 2 a usage
// error, 3 a build that must not record a baseline.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// Set-up is measured this many times per run and the median reported. The
// cold runs also warm the allocator before anything is timed, in both modes,
// so the trace overhead compares like with like.
constexpr int kSetupReps = 5;

// A job, set-up or window during which the hypervisor gave more than this
// share of the machine's CPU time to other guests is left out of the
// reported figures (see quiet()).
constexpr double kQuietSteal = 0.05;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kPerLayer[] = {
    {"storage.read_calls", "count"},
    {"storage.read_bytes", "B"},
    {"storage.read_busy_s", "s"},
    {"storage.read_mb_s", "MB/s"},
    {"ingest.plan_s", "s"},
    {"ingest.chunks", "count"},
    {"ingest.read_chunk_busy_s", "s"},
    {"ingest.consumer_wait_s", "s"},
    {"ingest.overlap_ratio", "ratio"},
    {"threading.dispatch_s", "s"},
    {"threading.wave_tail_s", "s"},
    {"map.tasks", "count"},
    {"map.busy_s", "s"},
    {"map.wave_s", "s"},
    {"map.imbalance", "ratio"},
    {"map.prepare_s", "s"},
    {"reduce.s", "s"},
    {"merge.s", "s"},
    {"merge.rounds", "count"},
    {"merge.items_moved", "count"},
    {"merge.partition_skew", "ratio"},
    {"core.job_s", "s"},
    {"core.self_s", "s"},
    {"core.cpu_util", "ratio"},
    {"cluster.node_job_s.max", "s"},
    {"cluster.node_job_s.min", "s"},
    {"cluster.serialize_s", "s"},
    {"cluster.post_map_s", "s"},
    {"cluster.shuffle_bytes", "B"},
    {"cluster.local_bytes", "B"},
    {"runtime.submit_s", "s"},
    {"runtime.queue_wait_s.p50", "s"},
    {"runtime.queue_wait_s.p95", "s"},
    {"runtime.run_s", "s"},
    {"trace_overhead_s", "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') a.seconds = 0.0;
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1
                                                                        : -1;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed &&
         a.seconds > 0.0 && a.trace >= 0;
}

// Linear interpolation between closest ranks; p in [0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::vector<double> latencies(const Measurement& m) {
  std::vector<double> v;
  for (const JobSample& s : m.jobs) v.push_back(s.latency_s);
  return v;
}

std::size_t failures(const Measurement& m) {
  std::size_t n = 0;
  for (const JobSample& s : m.jobs) n += s.failed ? 1 : 0;
  return n;
}

// On a shared host, hypervisor steal comes in spells of tens of seconds and
// stretches wall time by two to four times its share. The reported figures
// therefore come from the samples taken while steal stayed at or below
// kQuietSteal; when fewer than a quarter of them did, from the quarter with
// the least steal. Returns the indices of those samples.
std::vector<std::size_t> quiet(const std::vector<double>& steal) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  const std::size_t calm =
      std::count_if(steal.begin(), steal.end(),
                    [](double s) { return s <= kQuietSteal; });
  idx.resize(std::max(calm, (steal.size() + 3) / 4));
  return idx;
}

// Latencies of the quiet jobs of `jobs`.
std::vector<double> quiet_latencies(const std::vector<JobSample>& jobs) {
  std::vector<double> steal;
  for (const JobSample& s : jobs) steal.push_back(s.steal);
  std::vector<double> v;
  for (std::size_t i : quiet(steal)) v.push_back(jobs[i].latency_s);
  return v;
}

// Sums of the quiet windows of `m`.
Window quiet_windows(const Measurement& m) {
  std::vector<double> steal;
  for (const Window& w : m.windows) steal.push_back(w.steal);
  Window sum;
  for (std::size_t i : quiet(steal)) {
    sum.seconds += m.windows[i].seconds;
    sum.jobs += m.windows[i].jobs;
    sum.cpu_s += m.windows[i].cpu_s;
  }
  if (sum.jobs == 0.0) sum = {m.makespan_s, double(m.jobs.size()), m.cpu_s};
  return sum;
}

struct Reported {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Reported& r, const std::string& note = "") {
  std::printf("metric %-26s %14.6f %-6s %s\n", r.name.c_str(), r.value,
              r.unit.c_str(), note.c_str());
}

// Per-layer medians over the traced jobs, plus the figures taken over the
// whole traced measurement.
Metrics layer_medians(const Measurement& traced, const SpanLog& log,
                      unsigned nproc) {
  const std::vector<Span> spans = log.snapshot();
  std::map<std::string, std::vector<double>> samples;
  for (const JobSample& s : traced.jobs) {
    Metrics m = job_layers(spans, s.job);
    for (const auto& [k, v] : s.layers) m[k] = v;
    for (const auto& [k, v] : m) samples[k].push_back(v);
  }
  Metrics out;
  for (auto& [k, v] : samples) {
    if (k == "runtime.queue_wait_s") {
      out[k + ".p50"] = percentile(v, 0.5);
      out[k + ".p95"] = percentile(v, 0.95);
    } else {
      out[k] = median(v);
    }
  }
  out["core.cpu_util"] =
      traced.cpu_s / (traced.makespan_s * double(std::max(1u, nproc)));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: supmr_perfbench --workload "
                 "wordcount|terasort|shuffle|jobmix --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "supmr_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Host host = this_host();
  std::printf("host %s\n", host_json(host).c_str());
  if (const std::string why = baseline_refusal(host); !why.empty()) {
    std::fprintf(stderr, "supmr_perfbench: refusing to record a baseline "
                         "from a %s\n",
                 why.c_str());
    return 3;
  }

  std::printf("workload %s seed %llu: %s\n", args.workload.c_str(),
              (unsigned long long)args.seed, workload->describe().c_str());
  const double g0 = cpu_seconds();
  if (supmr::Status st = workload->generate(args.seed); !st.ok()) {
    std::fprintf(stderr, "supmr_perfbench: input generation failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }
  std::printf("input %.1f MB (generation + oracle: %.2f cpu s)\n",
              double(workload->input_bytes()) / 1e6, cpu_seconds() - g0);
  std::fflush(stdout);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<JobSample> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    setup.push_back(workload->cold_start());
    ++attempted;
    failed += setup.back().failed ? 1 : 0;
  }
  const std::vector<double> quiet_setup = quiet_latencies(setup);

  std::vector<Reported> metrics;
  const CpuTicks ticks0 = cpu_ticks();
  if (args.trace == 0) {
    const Measurement m = workload->measure(args.seconds, nullptr);
    attempted += m.jobs.size();
    failed += failures(m);
    const std::vector<double> lat = latencies(m);
    const std::vector<double> calm = quiet_latencies(m.jobs);
    const Window w = quiet_windows(m);
    std::vector<double> window_peaks;
    for (const Window& x : m.windows) window_peaks.push_back(x.peak_rss_mb);
    metrics = {
        {"job_s", median(calm), "s"},
        {"jobs_per_s", w.jobs / w.seconds, "1/s"},
        {"cpu_s", w.cpu_s / w.jobs, "s"},
        {"peak_rss_mb", median(window_peaks), "MB"},
        {"setup_s", median(quiet_setup), "s"},
    };
    print_metric(metrics[0], "median of " + std::to_string(calm.size()) +
                                 " quiet of " + std::to_string(m.jobs.size()) +
                                 " jobs");
    std::printf("all %zu jobs: job_s min %.4f p25 %.4f p50 %.4f p75 %.4f "
                "max %.4f, jobs_per_s %.4f, cpu_s %.4f\n",
                lat.size(), percentile(lat, 0.0), percentile(lat, 0.25),
                percentile(lat, 0.5), percentile(lat, 0.75),
                percentile(lat, 1.0), double(m.jobs.size()) / m.makespan_s,
                m.cpu_s / double(m.jobs.size()));
    // Printed but not in the result: only jobmix has the >= 200 samples
    // that put ten beyond it, and on a shared host the tail of 20-40
    // sequential runs moves too much between runs to gate on.
    print_metric({"job_s.p95", percentile(lat, 0.95), "s"},
                 std::to_string(m.jobs.size() / 20) + " jobs beyond it");
    print_metric(metrics[1], "over " + std::to_string(int(w.jobs)) +
                                 " jobs in quiet windows");
    print_metric(metrics[2], "user+sys per job in quiet windows");
    print_metric(metrics[3],
                 "median of " + std::to_string(window_peaks.size()) +
                     " per-window marks, input " +
                     std::to_string(workload->input_bytes() >> 20) + " MB");
    print_metric(metrics[4], "median of " +
                                 std::to_string(quiet_setup.size()) +
                                 " quiet of " + std::to_string(setup.size()));
  } else {
    const Measurement plain = workload->measure(args.seconds / 2, nullptr);
    SpanLog log;
    const Measurement traced = workload->measure(args.seconds / 2, &log);
    attempted += plain.jobs.size() + traced.jobs.size();
    failed += failures(plain) + failures(traced);
    Metrics layers = layer_medians(traced, log, host.nproc);
    layers["trace_overhead_s"] = median(quiet_latencies(traced.jobs)) -
                                 median(quiet_latencies(plain.jobs));
    for (const MetricDef& d : kPerLayer) {
      auto it = layers.find(d.name);
      metrics.push_back({d.name, it == layers.end() ? 0.0 : it->second,
                         d.unit});
      print_metric(metrics.back());
    }
    const Metrics candidates = verdict_candidates(layers);
    auto top = std::max_element(
        candidates.begin(), candidates.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    std::printf("bottleneck %s (critical-path self time, s:",
                top->first.c_str());
    for (const auto& [k, v] : candidates) std::printf(" %s=%.4f", k.c_str(), v);
    std::printf(") over %zu traced jobs\n", traced.jobs.size());
    if (!args.trace_out.empty()) {
      const std::vector<std::pair<std::string, std::string>> other = {
          {"workload", args.workload},
          {"seed", std::to_string(args.seed)},
          {"nproc", std::to_string(host.nproc)},
          {"compiler", host.compiler},
          {"build_type", host.build_type},
          {"supmr_obs", host.supmr_obs},
          {"sanitizer", host.sanitizer},
      };
      if (supmr::Status st = log.write_chrome_trace(args.trace_out, other);
          !st.ok()) {
        std::fprintf(stderr, "supmr_perfbench: %s\n", st.to_string().c_str());
        return 1;
      }
      std::printf("trace %s\n", args.trace_out.c_str());
    }
  }
  // Wall-clock figures stretch with the time other guests take from this
  // machine's CPUs; printed so that a slow run can be told from a slow host.
  const CpuTicks ticks1 = cpu_ticks();
  if (ticks1.total > ticks0.total) {
    std::printf("host steal %.1f%% of CPU time while measuring\n",
                100.0 * double(ticks1.steal - ticks0.steal) /
                    double(ticks1.total - ticks0.total));
  }
  std::printf("fail_ratio %.6f (%zu of %zu jobs)\n",
              double(failed) / double(attempted), failed, attempted);

  supmr::JsonWriter w;
  w.begin_object();
  w.kv("correct", failed == 0);
  w.kv("attempted", std::uint64_t(attempted));
  w.kv("failed", std::uint64_t(failed));
  w.key("metrics");
  w.begin_object();
  for (const Reported& r : metrics) {
    w.key(r.name);
    w.begin_object();
    w.kv("value", r.value);
    w.kv("unit", r.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return failed == 0 ? 0 : 1;
}
