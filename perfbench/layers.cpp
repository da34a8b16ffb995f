#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/json.hpp"

namespace perfbench {
namespace {

std::atomic<std::uint32_t> g_threads{0};
thread_local std::uint32_t t_tid = 0;
// Spans open on this thread, innermost last: a span opened while another is
// open on the same thread (a device read inside read_chunk) is its child.
thread_local std::vector<std::int64_t> t_open;

std::uint32_t this_tid() {
  if (t_tid == 0) t_tid = ++g_threads;
  return t_tid;
}

class Guard {
 public:
  Guard(const Scope& scope, const char* name, const char* layer)
      : log_(scope.log) {
    const std::int64_t parent = t_open.empty() ? scope.root : t_open.back();
    id_ = log_->open(name, layer, scope.job, scope.node, parent);
    t_open.push_back(id_);
  }
  ~Guard() {
    t_open.pop_back();
    log_->close(id_, arg, arg2);
  }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

  std::uint64_t arg = 0;
  std::uint64_t arg2 = 0;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

double dur(const Span& s) { return s.t1 - s.t0; }

bool named(const Span& s, const char* name) {
  return std::string_view(s.name) == name;
}

// Length of the union of `spans` clipped to [lo, hi].
double coverage(std::vector<std::pair<double, double>> iv, double lo,
                double hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double end = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, end);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      end = b;
    }
  }
  return covered;
}

// storage/ingest/threading/map/merge figures of one local MapReduceJob
// (a whole job, or one cluster node).
void local_layers(const std::vector<const Span*>& spans, Metrics& m) {
  double plan_end = 0.0;
  std::size_t width = 1;
  std::map<std::uint64_t, const Span*> prepares;
  std::map<std::uint64_t, std::vector<const Span*>> tasks;  // by round
  for (const Span* s : spans) {
    if (named(*s, "storage.read")) {
      m["storage.read_calls"] += 1;
      m["storage.read_bytes"] += double(s->arg);
      m["storage.read_busy_s"] += dur(*s);
    } else if (named(*s, "ingest.plan")) {
      m["ingest.plan_s"] += dur(*s);
      plan_end = std::max(plan_end, s->t1);
    } else if (named(*s, "ingest.read_chunk")) {
      m["ingest.chunks"] += 1;
      m["ingest.read_chunk_busy_s"] += dur(*s);
    } else if (named(*s, "app.init")) {
      width = std::max<std::size_t>(1, s->arg2);
      plan_end = std::max(plan_end, s->t1);
    } else if (named(*s, "map.prepare")) {
      prepares[s->arg] = s;
      m["map.prepare_s"] += dur(*s);
    } else if (named(*s, "map.task")) {
      tasks[s->arg].push_back(s);
      m["map.tasks"] += 1;
      m["map.busy_s"] += dur(*s);
    } else if (named(*s, "reduce")) {
      m["reduce.s"] += dur(*s);
    } else if (named(*s, "merge")) {
      m["merge.s"] += dur(*s);
    }
  }
  const double busy = m["storage.read_busy_s"];
  m["storage.read_mb_s"] =
      busy > 0.0 ? m["storage.read_bytes"] / busy / 1e6 : 0.0;

  // Walk the rounds in order: the consumer waited from the end of the
  // previous round's last task (or of planning) to the next prepare_round.
  double prev_end = plan_end;
  double imbalance_sum = 0.0;
  std::size_t waves = 0;
  for (const auto& [round, prep] : prepares) {
    m["ingest.consumer_wait_s"] += std::max(0.0, prep->t0 - prev_end);
    prev_end = prep->t1;
    auto it = tasks.find(round);
    if (it == tasks.end()) continue;
    std::map<std::uint64_t, std::vector<const Span*>> by_wave;
    double first_start = it->second.front()->t0;
    for (const Span* t : it->second) {
      by_wave[t->arg2 / width].push_back(t);
      first_start = std::min(first_start, t->t0);
    }
    m["threading.dispatch_s"] += std::max(0.0, first_start - prep->t1);
    for (const auto& [wave, ts] : by_wave) {
      double start = ts.front()->t0, first_end = ts.front()->t1;
      double last_end = first_end, longest = 0.0, total = 0.0;
      for (const Span* t : ts) {
        start = std::min(start, t->t0);
        first_end = std::min(first_end, t->t1);
        last_end = std::max(last_end, t->t1);
        longest = std::max(longest, dur(*t));
        total += dur(*t);
      }
      m["map.wave_s"] += last_end - start;
      m["threading.wave_tail_s"] += last_end - first_end;
      const double mean = total / double(ts.size());
      imbalance_sum += mean > 0.0 ? longest / mean : 1.0;
      ++waves;
      prev_end = std::max(prev_end, last_end);
    }
  }
  m["map.imbalance"] = waves > 0 ? imbalance_sum / double(waves) : 1.0;
  const double read_busy = m["ingest.read_chunk_busy_s"];
  m["ingest.overlap_ratio"] =
      read_busy > 0.0 ? 1.0 - m["ingest.consumer_wait_s"] / read_busy : 0.0;
}

}  // namespace

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::int64_t SpanLog::open(const char* name, const char* layer,
                           std::uint64_t job, std::uint32_t node,
                           std::int64_t parent) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.job = job;
  s.node = node;
  s.parent = parent;
  s.tid = this_tid();
  s.t0 = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return std::int64_t(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t id, std::uint64_t arg, std::uint64_t arg2) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[std::size_t(id)];
  s.t1 = t;
  s.arg = arg;
  s.arg2 = arg2;
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

supmr::Status SpanLog::write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& other) const {
  std::vector<Span> spans = snapshot();
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return spans[a].t0 < spans[b].t0;
  });
  supmr::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i : order) {
    const Span& s = spans[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.layer);
    w.kv("ph", "X");
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", std::uint64_t{s.tid});
    w.kv("ts", s.t0 * 1e6);
    w.kv("dur", (s.t1 - s.t0) * 1e6);
    w.key("args");
    w.begin_object();
    w.kv("span", std::uint64_t(i));
    w.kv("parent", std::int64_t(s.parent));
    w.kv("job", s.job);
    w.kv("node", std::uint64_t{s.node});
    w.kv("arg", s.arg);
    w.kv("arg2", s.arg2);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  for (const auto& [k, v] : other) w.kv(k, v);
  w.end_object();
  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return supmr::Status::IoError("cannot create " + path);
  const std::string& json = w.str();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !ok) {
    return supmr::Status::IoError("short write to " + path);
  }
  return supmr::Status::Ok();
}

supmr::StatusOr<std::size_t> TracedDevice::read_at(std::uint64_t offset,
                                                   std::span<char> out) const {
  Guard g(scope_, "storage.read", "storage");
  auto n = inner_->read_at(offset, out);
  if (n.ok()) g.arg = *n;
  return n;
}

supmr::StatusOr<std::vector<supmr::ingest::ChunkExtent>> TracedSource::plan()
    const {
  Guard g(scope_, "ingest.plan", "ingest");
  return inner_.plan();
}

supmr::Status TracedSource::read_chunk(
    const supmr::ingest::ChunkExtent& extent,
    supmr::ingest::IngestChunk& out) const {
  Guard g(scope_, "ingest.read_chunk", "ingest");
  g.arg = extent.length;
  return inner_.read_chunk(extent, out);
}

void TracedApp::init(std::size_t num_map_threads) {
  if (nodes_ != nullptr) {
    scope_.node = ++*nodes_;
    node_span_ =
        scope_.log->open("cluster.node", "cluster", scope_.job, scope_.node,
                         scope_.root);
    scope_.root = node_span_;
  }
  Guard g(scope_, "app.init", "map");
  g.arg2 = num_map_threads;
  inner_->init(num_map_threads);
}

supmr::Status TracedApp::prepare_round(
    const supmr::ingest::IngestChunk& chunk) {
  Guard g(scope_, "map.prepare", "map");
  g.arg = round_.fetch_add(1);
  return inner_->prepare_round(chunk);
}

void TracedApp::map_task(std::size_t task, std::size_t thread_id) {
  Guard g(scope_, "map.task", "map");
  g.arg = round_.load() - 1;
  g.arg2 = task;
  inner_->map_task(task, thread_id);
}

supmr::Status TracedApp::reduce(supmr::ThreadPool& pool,
                                std::size_t num_partitions) {
  Guard g(scope_, "reduce", "map");
  return inner_->reduce(pool, num_partitions);
}

supmr::Status TracedApp::merge(supmr::ThreadPool& pool,
                               const supmr::core::MergePlan& plan,
                               supmr::merge::MergeStats* stats) {
  Guard g(scope_, "merge", "merge");
  return inner_->merge(pool, plan, stats);
}

std::string TracedApp::canonical_output() const {
  if (node_span_ < 0) return inner_->canonical_output();
  std::string out;
  {
    Guard g(scope_, "cluster.serialize", "cluster");
    out = inner_->canonical_output();
    g.arg = out.size();
  }
  scope_.log->close(node_span_);
  return out;
}

Metrics job_layers(const std::vector<Span>& all, std::uint64_t job) {
  Metrics m;
  const Span* root = nullptr;
  std::vector<const Span*> spans;
  std::set<std::uint32_t> nodes;
  for (const Span& s : all) {
    if (s.job != job) continue;
    if (s.parent < 0) {
      root = &s;
      continue;
    }
    spans.push_back(&s);
    if (s.node != 0) nodes.insert(s.node);
  }
  if (root == nullptr) return m;
  const double job_s = dur(*root);
  m["core.job_s"] = job_s;
  std::vector<std::pair<double, double>> children;
  for (const Span* s : spans) children.emplace_back(s->t0, s->t1);
  m["core.self_s"] = job_s - coverage(children, root->t0, root->t1);

  // The local job's own span: first init to last merge end.
  auto body = [](const std::vector<const Span*>& ss) {
    double lo = 1e300, hi = 0.0;
    for (const Span* s : ss) {
      if (named(*s, "app.init")) lo = std::min(lo, s->t0);
      if (named(*s, "merge")) hi = std::max(hi, s->t1);
    }
    return std::make_pair(lo, hi);
  };

  if (nodes.empty()) {
    local_layers(spans, m);
    const auto [lo, hi] = body(spans);
    m["runtime.self_s"] = hi > lo ? job_s - (hi - lo) : 0.0;
    return m;
  }

  // Cluster job: per-node local jobs, then the post-map shuffle.
  double node_max = 0.0, node_min = 1e300, serialize = 0.0, last_ser = 0.0;
  double critical_end = -1.0;
  std::vector<const Span*> critical;
  for (std::uint32_t n : nodes) {
    std::vector<const Span*> ns;
    for (const Span* s : spans) {
      if (s->node != n) continue;
      ns.push_back(s);
      if (named(*s, "cluster.serialize")) {
        serialize = std::max(serialize, dur(*s));
        last_ser = std::max(last_ser, s->t1);
      }
    }
    const auto [lo, hi] = body(ns);
    if (hi <= lo) continue;
    node_max = std::max(node_max, hi - lo);
    node_min = std::min(node_min, hi - lo);
    if (hi > critical_end) {
      critical_end = hi;
      critical = std::move(ns);
    }
  }
  local_layers(critical, m);
  m["cluster.node_job_s.max"] = node_max;
  m["cluster.node_job_s.min"] = node_max > 0.0 ? node_min : 0.0;
  m["cluster.serialize_s"] = serialize;
  m["cluster.post_map_s"] = last_ser > 0.0 ? root->t1 - last_ser : 0.0;
  return m;
}

Metrics verdict_candidates(const Metrics& layers) {
  auto get = [&](const char* k) {
    auto it = layers.find(k);
    return it == layers.end() ? 0.0 : it->second;
  };
  return {
      {"ingest", get("ingest.consumer_wait_s")},
      {"map", get("map.wave_s") + get("map.prepare_s") + get("reduce.s")},
      {"merge", get("merge.s")},
      {"shuffle", get("cluster.serialize_s") + get("cluster.post_map_s")},
      {"runtime", get("runtime.self_s")},
  };
}

}  // namespace perfbench
