// Shared pieces of the wall-clock benchmark: host measurements (wall and
// CPU clocks, RSS, allocation counts), the host-speed probe that every
// timed iteration is corrected by, the benchmark's own span recorder,
// and the metric list a run prints.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/export.h"

namespace perfbench {

/// Steady wall clock in seconds since an arbitrary origin.
double wall_s();
/// User+sys CPU of the whole process, in seconds.
double process_cpu_s();
/// Resident set now and its high-water mark, in MB (10^6 bytes).
double rss_mb();
double peak_rss_mb();
/// Restarts the high-water mark at the current RSS, so peak_rss_mb()
/// then measures one iteration's peak.
void reset_peak_rss();
/// Global `operator new` calls made by this process so far.
std::uint64_t allocations();

/// Mean and median of a sample (0 for an empty one).
double mean(const std::vector<double>& values);
double median(std::vector<double> values);
/// Nearest-rank percentile, `p` in [0, 100].
double percentile(std::vector<double> values, double p);
/// "median=<m> [<min>, <max>] n=<count>" for a report line.
std::string describe(const std::vector<double>& values);

// ---- Host-speed probe ---------------------------------------------------

/// One run of the probe: two producer/consumer thread pairs hand 64 KiB
/// buffers through a mutex/condvar queue, each consumer copying and
/// hashing what it receives. It uses no griddles code, so its time moves
/// only with the host.
struct ProbeSample {
  double wall_s = 0;
  /// CPU the four probe threads used, divided by four. Unlike wall time
  /// it does not grow when the probe threads wait for a vCPU, which a
  /// workload using fewer threads does not suffer to the same degree.
  double thread_cpu_s = 0;
  /// Process CPU spent during the probe by threads other than the probe
  /// threads. Nonzero means the program was not idle while the probe ran.
  double foreign_cpu_s = 0;
};
ProbeSample run_probe();

/// The probe's median per-thread CPU time on the reference host (4-vCPU
/// VM, Release build). Corrected times are in that host's seconds.
inline constexpr double kProbeRefCpuS = 0.0060;
/// Foreign CPU above this marks a probe as disturbed.
inline constexpr double kProbeForeignLimitS = 0.0005;

/// Alternates probes with timed work and converts raw times into
/// reference-host times: timed interval k (between probes k and k+1) is
/// scaled by (kProbeRefCpuS / median(probe CPU k-1 .. k+2))^sensitivity.
/// The window follows slow stretches that last seconds but not a single
/// disturbed probe. `sensitivity` is how much more a workload slows than
/// the probe when the host slows: the slope of log(raw time) against
/// log(probe CPU time) across runs (see README.md, "Host correction").
class HostCorrector {
 public:
  /// Runs the leading probe.
  explicit HostCorrector(double sensitivity = 1.0);
  /// Probes after a timed interval; returns that interval's index.
  std::size_t after_interval();
  /// The correction factor of interval `k` from the probes run so far.
  double factor(std::size_t k) const;
  /// Per-thread CPU time of every probe run so far.
  const std::vector<double>& probe_cpu_times() const {
    return probe_cpu_times_;
  }
  /// The host record line: probe times, and the probes during which
  /// program threads used CPU (and the most they used).
  std::string summary() const;

 private:
  double sensitivity_;
  std::vector<double> probe_times_;
  std::vector<double> probe_cpu_times_;
  int disturbed_ = 0;
  double max_foreign_s_ = 0;
};

/// Raw per-interval values, corrected once all probes have run.
class Samples {
 public:
  void add(double raw, std::size_t interval) {
    raw_.push_back(raw);
    intervals_.push_back(interval);
  }
  const std::vector<double>& raw() const { return raw_; }
  std::vector<double> corrected(const HostCorrector& host) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      out.push_back(raw_[i] * host.factor(intervals_[i]));
    }
    return out;
  }

 private:
  std::vector<double> raw_;
  std::vector<std::size_t> intervals_;
};

// ---- Benchmark spans ------------------------------------------------------

/// Spans recorded from the benchmark's own code around each call into a
/// layer. Kept in memory and written at exit as Chrome trace events, the
/// format of the program's span exporter. Not thread-safe: only the
/// benchmark's main thread records spans.
class Tracer {
 public:
  std::uint64_t begin(std::string name, std::uint64_t trace_id,
                      std::uint64_t parent_id);
  void end(std::uint64_t span_id);
  /// Per span name: total self time (duration minus the union of its
  /// direct children) in seconds, and the number of spans.
  std::map<std::string, std::pair<double, int>> self_times() const;
  std::string chrome_json() const;

 private:
  struct Record {
    std::string name;
    std::uint64_t trace_id = 0;  // one per iteration or rung
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    double start_s = 0;
    double end_s = 0;
  };
  std::vector<Record> records_;
  std::uint64_t next_id_ = 1;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t trace_id,
             std::uint64_t parent_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
};

// ---- Results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run reports: the result line's fields plus text lines for the
/// host record and the attribution table.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  void fail(const std::string& why);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Counter difference between two snapshots (0 for a missing name).
std::uint64_t counter_delta(const griddles::obs::MetricsSnapshot& before,
                            const griddles::obs::MetricsSnapshot& after,
                            const std::string& name);

/// Exact-count guard for one timed iteration (snapshots around it and
/// around the reference run): the FM must move exactly `fm_read` and
/// `fm_written` bytes; fm.open.*, admission.admitted and remote.copy.bytes
/// must move as in the reference run; stage.reruns, retry.attempts,
/// overload.shed and fault.injected.* must not move. A mismatch means the
/// iteration measured something else, e.g. the runner's staged-file
/// recovery. Returns the first mismatch, or "" when every count holds.
std::string count_guard(const griddles::obs::MetricsSnapshot& before,
                        const griddles::obs::MetricsSnapshot& after,
                        const griddles::obs::MetricsSnapshot& ref_before,
                        const griddles::obs::MetricsSnapshot& ref_after,
                        std::uint64_t fm_read, std::uint64_t fm_written);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path scratch;  // per-run scratch root, removed at exit
  std::filesystem::path trace_out;
};

/// Workload entry points (workloads.cc, storm.cc).
void run_pipeline_workload(const Options& options, RunResult& result,
                           Tracer* tracer);
void run_storm_workload(const Options& options, RunResult& result,
                        Tracer* tracer);
/// Median probe-corrected time of WorkflowRunner::run on the workload's
/// pipeline shape (the climate shape for non-pipeline workloads) with
/// 1-byte files: what a run costs besides moving its data.
double fixed_overhead_ms(const Options& options, HostCorrector& host,
                         Tracer* tracer);
/// The per-layer rungs (ladder.cc), timed under `tracer`.
void run_ladder(const Options& options, RunResult& result, Tracer& tracer);
/// The corrected value of a metric already in `result` (negative if
/// absent).
double metric_value(const RunResult& result, const std::string& name);

}  // namespace perfbench
