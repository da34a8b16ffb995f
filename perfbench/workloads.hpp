// The benchmark's four workloads (README.md says why each was chosen).
//
// Each drives only public entry points — core::MapReduceJob::run,
// cluster::run_cluster, runtime::JobManager::submit / JobHandle::wait — over
// inputs generated from the seed, and byte-compares every job's output with
// the sequential oracle (ref::run_ref) outside the timed interval.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "layers.hpp"

namespace perfbench {

inline constexpr const char* kWorkloadNames[] = {"wordcount", "terasort",
                                                 "shuffle", "jobmix"};

struct JobSample {
  double latency_s = 0.0;  // public call -> result returned
  double end_s = 0.0;      // steady-clock seconds when the result returned
  double cpu_s = 0.0;      // process user+sys seconds over the call
  double steal = 0.0;      // host steal share over the call (steal_share)
  bool failed = false;     // errored, or output differs from the oracle
  std::size_t digest = 0;  // hash of the output bytes
  std::uint64_t job = 0;   // span-log job id (traced runs only)
  Metrics layers;          // figures the call returns (MergeStats, bytes,
                           // queue wait)
};

// A stretch of a measurement: the jobs completed in it, the CPU seconds
// they used, the host steal over it and the process's peak RSS within it.
// The sequential workloads record one window per job; jobmix cuts its
// closed loop into windows of ~0.5 s.
struct Window {
  double seconds = 0.0;
  double jobs = 0.0;
  double cpu_s = 0.0;
  double steal = 0.0;
  double peak_rss_mb = 0.0;
};

struct Measurement {
  std::vector<JobSample> jobs;
  std::vector<Window> windows;  // in time order, covering the measurement
  double makespan_s = 0.0;  // time the jobs were running
  double cpu_s = 0.0;       // process user+sys seconds over the makespan
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs from `seed` and the oracle's expected output.
  virtual supmr::Status generate(std::uint64_t seed) = 0;
  virtual std::uint64_t input_bytes() const = 0;
  virtual std::string describe() const = 0;

  // Set-up: builds everything a first result needs from the generated
  // inputs and produces that result cold. latency_s is the set-up time.
  virtual JobSample cold_start() = 0;

  // Runs jobs for at least `seconds` (and at least the workload's minimum
  // job count); traced through the wrappers when `log` is non-null.
  virtual Measurement measure(double seconds, SpanLog* log) = 0;
};

// `small` shrinks every input to a few MB (the fidelity test). Returns null
// for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        bool small = false);

// Process user+sys CPU seconds (getrusage).
double cpu_seconds();

// The process's peak RSS in MB since the last reset_peak_rss() (VmHWM), and
// the reset, which lowers the mark to the current RSS.
double peak_rss_mb();
void reset_peak_rss();

// Cumulative CPU time of the machine from /proc/stat, in clock ticks: all
// of it, and the part the hypervisor gave to other guests (steal).
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
CpuTicks cpu_ticks();

// Share of the machine's CPU time from `a` to `b` that went to steal; 0
// when no tick passed.
double steal_share(const CpuTicks& a, const CpuTicks& b);

}  // namespace perfbench
