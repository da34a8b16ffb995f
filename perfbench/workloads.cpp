#include "workloads.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "apps/grep.hpp"
#include "apps/tera_sort.hpp"
#include "apps/word_count.hpp"
#include "cluster/cluster_job.hpp"
#include "common/rng.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "ref/ref_job.hpp"
#include "runtime/job_manager.hpp"
#include "storage/mem_device.hpp"
#include "storage/rate_limiter.hpp"
#include "storage/throttled_device.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace perfbench {

using namespace supmr;

namespace {

constexpr std::uint64_t kMB = 1ull << 20;
// The paper's RAID-0 read rate (§VI), which makes terasort ingest-bound.
constexpr double kRaidBps = 384e6;
// A sequential workload times at least this many jobs per measurement.
constexpr std::size_t kMinRuns = 3;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

// Byte-compares one job's output with the oracle's.
void check(JobSample& s, const std::string& out, const std::string& expected) {
  s.digest = std::hash<std::string_view>{}(out);
  if (out != expected) {
    s.failed = true;
    const std::size_t at =
        std::mismatch(out.begin(), out.end(), expected.begin(), expected.end())
            .first -
        out.begin();
    std::fprintf(stderr, "perfbench: output differs from the oracle at byte "
                         "%zu (%zu bytes, expected %zu)\n",
                 at, out.size(), expected.size());
  }
}

void fail(JobSample& s, const Status& st) {
  s.failed = true;
  std::fprintf(stderr, "perfbench: job failed: %s\n", st.to_string().c_str());
}

void add_merge_stats(const merge::MergeStats& st, Metrics& m) {
  m["merge.rounds"] = double(st.num_rounds());
  m["merge.items_moved"] = double(st.total_items_moved());
  m["merge.partition_skew"] = st.partition_skew();
}

StatusOr<std::string> run_oracle(
    core::Application& app, std::shared_ptr<const storage::Device> device,
    std::shared_ptr<const ingest::RecordFormat> format) {
  ingest::SingleDeviceSource source(std::move(device), std::move(format), 0);
  SUPMR_ASSIGN_OR_RETURN(ref::RefResult r, ref::run_ref(app, source));
  return std::move(r.canonical);
}

std::string text_corpus(std::uint64_t bytes, std::size_t vocabulary,
                        std::uint64_t seed) {
  wload::TextCorpusConfig cfg;
  cfg.total_bytes = bytes;
  cfg.vocabulary = vocabulary;
  cfg.seed = seed;
  return wload::generate_text(cfg);
}

std::string teragen(std::uint64_t records, std::uint64_t seed) {
  wload::TeraGenConfig cfg;
  cfg.num_records = records;
  cfg.seed = seed;
  return wload::teragen_to_string(cfg);
}

core::JobConfig job_config(std::size_t threads) {
  core::JobConfig cfg;
  cfg.mode = core::ExecMode::kIngestMR;
  cfg.merge_mode = core::MergeMode::kPWay;
  cfg.num_map_threads = threads;
  cfg.num_reduce_threads = threads;
  return cfg;
}

// A job root span the benchmark owns: the interval of one public call.
struct RootSpan {
  RootSpan(SpanLog* log, const char* name, const char* layer) : log(log) {
    if (log == nullptr) return;
    scope.log = log;
    scope.job = log->next_job();
    scope.root = log->open(name, layer, scope.job, 0, -1);
  }
  void close() {
    if (log != nullptr) log->close(scope.root);
  }
  SpanLog* log;
  Scope scope;
};

// Workloads that run one job at a time, back to back.
class SequentialWorkload : public Workload {
 public:
  JobSample cold_start() override { return run_once(nullptr); }

  Measurement measure(double seconds, SpanLog* log) override {
    Measurement m;
    const double start = now_s();
    while (m.jobs.size() < kMinRuns || now_s() - start < seconds) {
      reset_peak_rss();
      const JobSample& s = m.jobs.emplace_back(run_once(log));
      m.windows.push_back({s.latency_s, 1.0, s.cpu_s, s.steal, peak_rss_mb()});
      m.makespan_s += s.latency_s;
      m.cpu_s += s.cpu_s;
    }
    return m;
  }

 protected:
  virtual JobSample run_once(SpanLog* log) = 0;
};

// One MapReduceJob over one device.
class LocalWorkload : public SequentialWorkload {
 public:
  std::uint64_t input_bytes() const override { return input_->size(); }

 protected:
  virtual std::unique_ptr<core::Application> make_app() const = 0;
  // The device one job reads; terasort puts the disk throttle here.
  virtual std::shared_ptr<const storage::Device> device() const {
    return input_;
  }

  JobSample run_once(SpanLog* log) override {
    JobSample s;
    const CpuTicks k0 = cpu_ticks();
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    RootSpan root(log, "job", "core");
    std::shared_ptr<const storage::Device> dev = device();
    if (log != nullptr) dev = std::make_shared<TracedDevice>(dev, root.scope);
    ingest::SingleDeviceSource plain(dev, format_, chunk_bytes_, config_.io);
    TracedSource traced(plain, root.scope);
    const ingest::IngestSource& source =
        log != nullptr ? static_cast<const ingest::IngestSource&>(traced)
                       : plain;
    std::unique_ptr<core::Application> app = make_app();
    if (log != nullptr) {
      app = std::make_unique<TracedApp>(std::move(app), root.scope);
    }
    auto run = [&]() -> StatusOr<core::JobResult> {
      SUPMR_RETURN_IF_ERROR(app->use_container(config_.container));
      core::MapReduceJob job(*app, source, config_);
      return job.run(config_.mode);
    };
    StatusOr<core::JobResult> result = run();
    s.end_s = now_s();
    s.latency_s = s.end_s - t0;
    s.cpu_s = cpu_seconds() - c0;
    s.steal = steal_share(k0, cpu_ticks());
    root.close();
    s.job = root.scope.job;
    if (!result.ok()) {
      fail(s, result.status());
      return s;
    }
    add_merge_stats(result->merge_stats, s.layers);
    check(s, app->canonical_output(), expected_);
    return s;
  }

  std::shared_ptr<const storage::Device> input_;
  std::shared_ptr<const ingest::RecordFormat> format_;
  std::string expected_;
  std::uint64_t chunk_bytes_ = 16 * kMB;
  core::JobConfig config_ = job_config(4);
};

class WordcountWorkload final : public LocalWorkload {
 public:
  explicit WordcountWorkload(bool small)
      : bytes_(small ? 4 * kMB : 64 * kMB),
        vocabulary_(small ? 50000 : 1 << 20) {
    if (small) chunk_bytes_ = kMB;
  }

  Status generate(std::uint64_t seed) override {
    input_ = std::make_shared<storage::MemDevice>(
        text_corpus(bytes_, vocabulary_, seed), "wordcount");
    format_ = std::make_shared<ingest::LineFormat>();
    apps::WordCountApp app;
    SUPMR_ASSIGN_OR_RETURN(expected_, run_oracle(app, input_, format_));
    return Status::Ok();
  }

  std::string describe() const override {
    return "WordCountApp, Zipf text " + std::to_string(bytes_ / kMB) +
           " MB, vocabulary " + std::to_string(vocabulary_) +
           ", supmr mode, p-way merge, default container, 4 threads";
  }

 protected:
  std::unique_ptr<core::Application> make_app() const override {
    return std::make_unique<apps::WordCountApp>();
  }

 private:
  std::uint64_t bytes_;
  std::size_t vocabulary_;
};

class TerasortWorkload final : public LocalWorkload {
 public:
  explicit TerasortWorkload(bool small)
      : records_(small ? 40000 : 640000) {
    if (small) chunk_bytes_ = kMB;
  }

  Status generate(std::uint64_t seed) override {
    input_ = std::make_shared<storage::MemDevice>(teragen(records_, seed),
                                                  "terasort");
    format_ = std::make_shared<ingest::FixedFormat>(kRecordBytes);
    apps::TeraSortApp app;
    SUPMR_ASSIGN_OR_RETURN(expected_, run_oracle(app, input_, format_));
    return Status::Ok();
  }

  std::string describe() const override {
    return "TeraSortApp, " + std::to_string(records_) +
           " TeraGen records behind a 384 MB/s ThrottledDevice, supmr mode, "
           "p-way merge, 4 threads";
  }

 protected:
  std::unique_ptr<core::Application> make_app() const override {
    return std::make_unique<apps::TeraSortApp>();
  }
  // A fresh limiter per job, so no job inherits another's reservations.
  std::shared_ptr<const storage::Device> device() const override {
    return std::make_shared<storage::ThrottledDevice>(
        input_, std::make_shared<storage::RateLimiter>(kRaidBps));
  }

 private:
  static constexpr std::uint32_t kRecordBytes = 100;
  std::uint64_t records_;
};

// Word count through the simulated 4-node cluster.
class ShuffleWorkload final : public SequentialWorkload {
 public:
  explicit ShuffleWorkload(bool small)
      : bytes_(small ? 4 * kMB : 32 * kMB),
        vocabulary_(small ? 50000 : 1 << 20) {}

  Status generate(std::uint64_t seed) override {
    job_.input = text_corpus(bytes_, vocabulary_, seed);
    job_.format = std::make_shared<ingest::LineFormat>();
    job_.config = job_config(1);
    job_.config.num_nodes = kNodes;
    job_.config.node_link_bps = kNicBps;
    job_.chunk_bytes = kMB;
    apps::WordCountApp app;
    SUPMR_ASSIGN_OR_RETURN(
        expected_,
        run_oracle(app,
                   std::make_shared<storage::MemDevice>(job_.input, "oracle"),
                   job_.format));
    return Status::Ok();
  }

  std::uint64_t input_bytes() const override { return job_.input.size(); }

  std::string describe() const override {
    return "WordCountApp via run_cluster, Zipf text " +
           std::to_string(bytes_ / kMB) + " MB, vocabulary " +
           std::to_string(vocabulary_) +
           ", 4 nodes x 1 map thread, 16 MB/s node NICs";
  }

 protected:
  JobSample run_once(SpanLog* log) override {
    JobSample s;
    const CpuTicks k0 = cpu_ticks();
    const double c0 = cpu_seconds();
    const double t0 = now_s();
    RootSpan root(log, "job", "cluster");
    std::atomic<std::uint32_t> nodes{0};
    if (log != nullptr) {
      job_.make_app = [&] {
        return std::unique_ptr<core::Application>(new TracedApp(
            std::make_unique<apps::WordCountApp>(), root.scope, &nodes));
      };
    } else {
      job_.make_app = [] {
        return std::unique_ptr<core::Application>(new apps::WordCountApp());
      };
    }
    StatusOr<cluster::ClusterResult> result = cluster::run_cluster(job_);
    s.end_s = now_s();
    s.latency_s = s.end_s - t0;
    s.cpu_s = cpu_seconds() - c0;
    s.steal = steal_share(k0, cpu_ticks());
    root.close();
    s.job = root.scope.job;
    job_.make_app = nullptr;
    if (!result.ok()) {
      fail(s, result.status());
      return s;
    }
    s.layers["cluster.shuffle_bytes"] = double(result->shuffle_bytes);
    s.layers["cluster.local_bytes"] = double(result->local_bytes);
    // Merge figures of the node with the most merge work.
    const core::JobResult* busiest = nullptr;
    for (const cluster::NodeStats& n : result->nodes) {
      if (busiest == nullptr || n.job.merge_stats.total_items_moved() >
                                    busiest->merge_stats.total_items_moved()) {
        busiest = &n.job;
      }
    }
    if (busiest != nullptr) add_merge_stats(busiest->merge_stats, s.layers);
    check(s, result->output, expected_);
    return s;
  }

 private:
  static constexpr std::size_t kNodes = 4;
  // Sized so serialise + transfer + owner fold is about a third of a run.
  static constexpr double kNicBps = 16e6;
  std::uint64_t bytes_;
  std::size_t vocabulary_;
  cluster::ClusterJob job_;
  std::string expected_;
};

// A closed loop of clients sharing one JobManager: each submits its next
// small job only after the previous one returned and was checked.
class JobmixWorkload final : public Workload {
 public:
  explicit JobmixWorkload(bool small)
      : bytes_(small ? kMB : 4 * kMB), min_jobs_(small ? 12 : 200) {}

  Status generate(std::uint64_t seed) override {
    seed_ = seed;
    variants_.clear();
    auto lines = std::make_shared<ingest::LineFormat>();
    auto records = std::make_shared<ingest::FixedFormat>(100);
    for (std::uint64_t i = 0; i < kPerKind; ++i) {
      const std::uint64_t s = seed * kPerKind + i;
      variants_.push_back({Kind::kWordcount,
                           std::make_shared<storage::MemDevice>(
                               text_corpus(bytes_, 50000, s), "wc"),
                           lines, {}});
      variants_.push_back({Kind::kGrep,
                           std::make_shared<storage::MemDevice>(
                               text_corpus(bytes_, 50000, s + 7919), "grep"),
                           lines, {}});
      variants_.push_back({Kind::kTerasort,
                           std::make_shared<storage::MemDevice>(
                               teragen(bytes_ / 100, s), "sort"),
                           records, {}});
    }
    for (Variant& v : variants_) {
      std::unique_ptr<core::Application> app = make_app(v.kind);
      SUPMR_ASSIGN_OR_RETURN(v.expected, run_oracle(*app, v.input, v.format));
    }
    return Status::Ok();
  }

  std::uint64_t input_bytes() const override {
    std::uint64_t n = 0;
    for (const Variant& v : variants_) n += v.input->size();
    return n;
  }

  std::string describe() const override {
    return "closed loop, " + std::to_string(kClients) +
           " clients over one 4-thread JobManager, 2-thread leases, "
           "wordcount/grep/terasort jobs of " +
           std::to_string(bytes_ / kMB) + " MB, >= " +
           std::to_string(min_jobs_) + " jobs per measurement";
  }

  JobSample cold_start() override {
    const CpuTicks k0 = cpu_ticks();
    const double t0 = now_s();
    runtime::JobManager manager(manager_options());
    const double built_s = now_s() - t0;
    std::atomic<double> check_cpu{0.0};
    JobSample s = run_job(manager, variants_.front(), nullptr, &check_cpu);
    s.latency_s += built_s;
    s.steal = steal_share(k0, cpu_ticks());
    return s;
  }

  Measurement measure(double seconds, SpanLog* log) override {
    runtime::JobManager manager(manager_options());
    std::vector<std::vector<JobSample>> per_client(kClients);
    std::atomic<double> check_cpu{0.0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> running{kClients};
    Measurement m;
    // Window boundaries, taken by this thread while the clients run. The
    // clients' output checks are the benchmark's work, not the jobs'.
    struct Mark {
      double t;
      std::size_t done;
      double cpu_s;
      CpuTicks ticks;
      double peak_rss_mb;  // since the previous mark
    };
    auto mark = [&] {
      Mark k{now_s(), done.load(), cpu_seconds() - check_cpu.load(),
             cpu_ticks(), peak_rss_mb()};
      reset_peak_rss();
      return k;
    };
    std::vector<Mark> marks{mark()};
    const double start = marks[0].t;
    {
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          // Each client walks seeded permutations of the variants, so the
          // seed orders the mix without changing its proportions.
          Xoshiro256 rng(seed_ * kClients + c);
          std::vector<std::size_t> order(variants_.size());
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          for (std::size_t n = 0;
               done.load() < min_jobs_ || now_s() - start < seconds; ++n) {
            const std::size_t at = n % order.size();
            if (at == 0) {
              for (std::size_t i = order.size() - 1; i > 0; --i) {
                std::swap(order[i], order[rng.uniform(i + 1)]);
              }
            }
            const Variant& v = variants_[order[at]];
            per_client[c].push_back(run_job(manager, v, log, &check_cpu));
            done.fetch_add(1);
          }
          running.fetch_sub(1);
        });
      }
      while (running.load() > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (now_s() - marks.back().t >= kWindowS) marks.push_back(mark());
      }
      for (std::thread& t : clients) t.join();
    }
    // The tail after the last full window joins that window.
    double tail_peak = 0.0;
    if (marks.size() > 1 && now_s() - marks.back().t < kWindowS / 2) {
      tail_peak = marks.back().peak_rss_mb;
      marks.pop_back();
    }
    marks.push_back(mark());
    marks.back().peak_rss_mb = std::max(marks.back().peak_rss_mb, tail_peak);
    m.makespan_s = marks.back().t - start;
    m.cpu_s = marks.back().cpu_s - marks[0].cpu_s;
    for (std::size_t i = 1; i < marks.size(); ++i) {
      m.windows.push_back({marks[i].t - marks[i - 1].t,
                           double(marks[i].done - marks[i - 1].done),
                           marks[i].cpu_s - marks[i - 1].cpu_s,
                           steal_share(marks[i - 1].ticks, marks[i].ticks),
                           marks[i].peak_rss_mb});
    }
    // A job carries the steal of the window it ended in: a single job is
    // too short for the tick counts to resolve its own share.
    for (auto& jobs : per_client) {
      for (JobSample& s : jobs) {
        std::size_t w = 0;
        while (w + 1 < m.windows.size() && marks[w + 1].t <= s.end_s) ++w;
        s.steal = m.windows[w].steal;
        m.jobs.push_back(std::move(s));
      }
    }
    return m;
  }

 private:
  enum class Kind { kWordcount, kGrep, kTerasort };
  struct Variant {
    Kind kind;
    std::shared_ptr<const storage::Device> input;
    std::shared_ptr<const ingest::RecordFormat> format;
    std::string expected;
  };

  static constexpr std::size_t kClients = 4;  // = nproc of the reference box
  static constexpr std::size_t kPoolThreads = 4;
  static constexpr std::size_t kLeaseThreads = 2;
  static constexpr std::uint64_t kPerKind = 2;
  static constexpr double kWindowS = 0.5;

  static runtime::JobManager::Options manager_options() {
    runtime::JobManager::Options o;
    o.num_threads = kPoolThreads;
    return o;
  }

  static std::unique_ptr<core::Application> make_app(Kind kind) {
    switch (kind) {
      case Kind::kWordcount:
        return std::make_unique<apps::WordCountApp>();
      case Kind::kGrep:
        return std::make_unique<apps::GrepApp>(
            std::vector<std::string>{"th", "he", "in", "er"});
      case Kind::kTerasort:
        return std::make_unique<apps::TeraSortApp>();
    }
    return nullptr;
  }

  // Runs one job through `manager`; adds the client thread's CPU seconds
  // spent checking the output to *check_cpu.
  JobSample run_job(runtime::JobManager& manager, const Variant& v,
                    SpanLog* log, std::atomic<double>* check_cpu) {
    JobSample s;
    const double t0 = now_s();
    RootSpan root(log, "job", "runtime");
    std::shared_ptr<const storage::Device> dev = v.input;
    if (log != nullptr) dev = std::make_shared<TracedDevice>(dev, root.scope);
    ingest::SingleDeviceSource plain(dev, v.format, kMB);
    TracedSource traced(plain, root.scope);
    std::unique_ptr<core::Application> app = make_app(v.kind);
    if (log != nullptr) {
      app = std::make_unique<TracedApp>(std::move(app), root.scope);
    }
    runtime::JobRequest request;
    request.app = app.get();
    request.source = log != nullptr
                         ? static_cast<const ingest::IngestSource*>(&traced)
                         : &plain;
    request.config = job_config(kLeaseThreads);
    request.threads = kLeaseThreads;
    request.memory_bytes = 16 * kMB;
    request.name = "jobmix";
    double submitted = t0;
    double queue_wait = 0.0;
    auto run = [&]() -> StatusOr<core::JobResult> {
      SUPMR_RETURN_IF_ERROR(app->use_container(request.config.container));
      SUPMR_ASSIGN_OR_RETURN(runtime::JobHandle handle,
                             manager.submit(std::move(request)));
      submitted = now_s();
      StatusOr<core::JobResult> r = handle.wait();
      queue_wait = handle.queue_wait_s();
      return r;
    };
    StatusOr<core::JobResult> result = run();
    s.end_s = now_s();
    s.latency_s = s.end_s - t0;
    root.close();
    s.job = root.scope.job;
    if (!result.ok()) {
      fail(s, result.status());
      return s;
    }
    s.layers["runtime.submit_s"] = submitted - t0;
    s.layers["runtime.queue_wait_s"] = queue_wait;
    s.layers["runtime.run_s"] = s.latency_s - queue_wait;
    add_merge_stats(result->merge_stats, s.layers);
    const double c0 = thread_cpu_seconds();
    check(s, app->canonical_output(), v.expected);
    check_cpu->fetch_add(thread_cpu_seconds() - c0);
    return s;
  }

  std::uint64_t bytes_;
  std::size_t min_jobs_;
  std::uint64_t seed_ = 0;
  std::vector<Variant> variants_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, bool small) {
  if (name == "wordcount") return std::make_unique<WordcountWorkload>(small);
  if (name == "terasort") return std::make_unique<TerasortWorkload>(small);
  if (name == "shuffle") return std::make_unique<ShuffleWorkload>(small);
  if (name == "jobmix") return std::make_unique<JobmixWorkload>(small);
  return nullptr;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return double(b.steal - a.steal) / double(b.total - a.total);
}

}  // namespace perfbench
