// The three pipeline workloads: the paper's climate pipeline over Grid
// Buffers, its durability pipeline over staged files, and the climate
// pipeline with a second DARLAM nest fed by a 1->2 broadcast channel.
//
// Every modelled cost is removed so only the program's own work is
// timed: kernels carry no compute, every machine pair gets an unlimited
// link, and the testbed clock runs at 1e-8 wall seconds per model second
// so per-block IPC charges and disk debt round to zero sleeps. That clock
// overflows after ~92 wall seconds, so each iteration builds a fresh
// testbed.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "perfbench/bench.h"
#include "src/apps/kernel.h"
#include "src/apps/paper_apps.h"
#include "src/common/strings.h"
#include "src/obs/span.h"
#include "src/testbed/testbed.h"
#include "src/workflow/runner.h"

namespace perfbench {

namespace apps = griddles::apps;
namespace fs = std::filesystem;
namespace obs = griddles::obs;
namespace testbed = griddles::testbed;
namespace wf = griddles::workflow;
using griddles::strings::cat;

namespace {

constexpr double kWallPerModel = 1e-8;
constexpr double kByteScale = 4;
constexpr int kSetupRepeats = 5;
constexpr int kMinIterations = 8;

struct Shape {
  std::string name;
  std::vector<apps::AppKernel> kernels;
  std::vector<std::string> machines;
  wf::CouplingMode mode = wf::CouplingMode::kGridBuffers;
  /// HostCorrector sensitivity, fitted over 10 runs per workload on the
  /// reference host (README.md, "Host correction").
  double host_sensitivity = 1.4;
};

Shape shape_for(const std::string& workload, double byte_scale) {
  Shape shape;
  shape.name = workload;
  if (workload == "durability-staged") {
    shape.kernels = apps::durability_pipeline(byte_scale);
    shape.machines = {"jagan", "dione", "brecca", "vpac27", "freak"};
    shape.mode = wf::CouplingMode::kSequentialFiles;
    shape.host_sensitivity = 1.2;
    return shape;
  }
  shape.kernels = apps::climate_pipeline(byte_scale);
  shape.machines = {"brecca", "dione", "vpac27"};
  if (workload == "ensemble-broadcast") {
    // A second DARLAM nest on a fourth machine turns LAM_IN into a
    // 1->2 broadcast channel through the multicast relay.
    apps::AppKernel nest = shape.kernels.back();
    nest.name = "darlam2";
    nest.outputs = {{"DARLAM2_OUT.DAT", nest.outputs.front().bytes}};
    shape.kernels.push_back(nest);
    shape.machines.push_back("freak");
    shape.host_sensitivity = 1.8;
  }
  return shape;
}

void remove_link_costs(griddles::net::LinkTable& links) {
  for (const testbed::MachineSpec& a : testbed::paper_machines()) {
    for (const testbed::MachineSpec& b : testbed::paper_machines()) {
      links.set_link(a.name, b.name, griddles::net::LinkModel{});
    }
  }
}

/// Bytes the FM must move in one run of `shape`.
std::pair<std::uint64_t, std::uint64_t> expected_fm_bytes(const Shape& shape) {
  std::uint64_t read = 0;
  std::uint64_t written = 0;
  for (const apps::AppKernel& kernel : shape.kernels) {
    for (const apps::StreamSpec& in : kernel.inputs) read += in.bytes;
    if (!kernel.inputs.empty()) {
      read += std::min(kernel.reread_bytes, kernel.inputs.front().bytes);
    }
    for (const apps::StreamSpec& out : kernel.outputs) written += out.bytes;
  }
  return {read, written};
}

/// Checks every final output (written, never read by another stage)
/// byte for byte against the deterministic stream generator.
std::string verify_final_outputs(const Shape& shape,
                                 testbed::TestbedRuntime& bed) {
  std::set<std::string> consumed;
  for (const apps::AppKernel& kernel : shape.kernels) {
    for (const apps::StreamSpec& in : kernel.inputs) consumed.insert(in.path);
  }
  int checked = 0;
  for (std::size_t t = 0; t < shape.kernels.size(); ++t) {
    for (const apps::StreamSpec& out : shape.kernels[t].outputs) {
      if (consumed.contains(out.path)) continue;
      auto dir = bed.machine_dir(shape.machines[t]);
      if (!dir.is_ok()) return dir.status().to_string();
      const fs::path file = fs::path(*dir) / out.path;
      std::ifstream in(file, std::ios::binary);
      griddles::Bytes got(64 * 1024);
      griddles::Bytes want(got.size());
      std::uint64_t offset = 0;
      while (in) {
        in.read(reinterpret_cast<char*>(got.data()),
                static_cast<std::streamsize>(got.size()));
        const auto n = static_cast<std::size_t>(in.gcount());
        if (n == 0) break;
        apps::fill_stream(out.path, offset, {want.data(), n});
        if (!std::equal(want.begin(), want.begin() + n, got.begin())) {
          return griddles::strings::cat(out.path, " differs near offset ",
                                        offset);
        }
        offset += n;
      }
      if (offset != out.bytes) {
        return griddles::strings::cat(out.path, " has ", offset,
                                      " bytes, expected ", out.bytes);
      }
      ++checked;
    }
  }
  return checked > 0 ? "" : "no final output to check";
}

struct Iteration {
  std::string error;  // empty on success
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t allocs = 0;
  double peak_rss_mb = 0;  // the process's RSS high-water mark in the run
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
};

/// One WorkflowRunner::run on a fresh testbed under `root`; only the
/// run itself is timed. The root is deleted afterwards.
Iteration run_once(const Shape& shape, double byte_scale,
                   const fs::path& root, bool verify, Tracer* tracer,
                   std::uint64_t trace_id) {
  Iteration it;
  {
    testbed::TestbedRuntime bed(kWallPerModel, root.string(), byte_scale);
    remove_link_costs(bed.network().links());
    std::vector<apps::AppKernel> kernels = shape.kernels;
    for (apps::AppKernel& kernel : kernels) {
      kernel.work_units = 0;
      kernel.verify_inputs = verify;
    }
    auto spec = wf::WorkflowSpec::from_pipeline(shape.name, kernels,
                                                shape.machines);
    if (!spec.is_ok()) {
      it.error = spec.status().to_string();
      return it;
    }
    wf::WorkflowRunner runner(bed);
    wf::WorkflowRunner::Options options;
    options.mode = shape.mode;

    it.before = obs::snapshot();
    reset_peak_rss();
    const std::uint64_t allocs0 = allocations();
    const double cpu0 = process_cpu_s();
    const double t0 = wall_s();
    griddles::Result<wf::WorkflowReport> report = [&] {
      ScopedSpan span(tracer, "workflow.run", trace_id);
      return runner.run(*spec, options);
    }();
    it.wall_s = wall_s() - t0;
    it.cpu_s = process_cpu_s() - cpu0;
    it.allocs = allocations() - allocs0;
    it.peak_rss_mb = peak_rss_mb();
    it.after = obs::snapshot();
    if (!report.is_ok()) {
      it.error = report.status().to_string();
    } else if (verify) {
      it.error = verify_final_outputs(shape, bed);
    }
  }
  std::error_code ec;
  fs::remove_all(root, ec);
  return it;
}

/// Rung cost x per-run count for each layer one run of `shape` crosses,
/// against the corrected makespan. Grid Buffer stages overlap, so there
/// the serial sum can exceed the makespan (a negative remainder).
void attribution(const Shape& shape, const Iteration& reference,
                 double makespan_s, RunResult& result) {
  std::map<std::string, int> readers;  // path -> consuming stages
  for (const apps::AppKernel& kernel : shape.kernels) {
    for (const apps::StreamSpec& in : kernel.inputs) ++readers[in.path];
  }
  double fill_mb = 0, stream_mb = 0, cast_mb = 0, reread_mb = 0;
  double local_write_mb = 0, local_read_mb = 0;
  const bool buffers = shape.mode == wf::CouplingMode::kGridBuffers;
  for (const apps::AppKernel& kernel : shape.kernels) {
    for (const apps::StreamSpec& out : kernel.outputs) {
      const double mb = static_cast<double>(out.bytes) / 1e6;
      fill_mb += mb;
      const int n = readers[out.path];
      if (!buffers || n == 0) {
        local_write_mb += mb;
      } else {
        (n > 1 ? cast_mb : stream_mb) += mb;
      }
    }
    for (const apps::StreamSpec& in : kernel.inputs) {
      if (!buffers) local_read_mb += static_cast<double>(in.bytes) / 1e6;
    }
    if (buffers && !kernel.inputs.empty()) {
      reread_mb += static_cast<double>(std::min(
                       kernel.reread_bytes, kernel.inputs.front().bytes)) /
                   1e6;
    }
  }
  const double copy_mb =
      static_cast<double>(counter_delta(reference.before, reference.after,
                                        "remote.copy.bytes")) / 1e6;
  const double blocks_per_mb = 1e6 / 65536.0;
  const auto rung = [&](const char* name) {
    return std::max(0.0, metric_value(result, name));
  };
  const std::vector<std::pair<std::string, double>> rows = {
      {cat("apps.fill (", fill_mb, " MB)"),
       fill_mb * rung("apps.fill_ms_per_MB")},
      {cat("gridbuffer 1->1 stream (", stream_mb, " MB)"),
       stream_mb * blocks_per_mb * rung("gridbuffer.stream_us_per_64KiB") /
           1e3},
      {cat("multicast 1->2 stream (", cast_mb, " MB)"),
       cast_mb * blocks_per_mb * rung("multicast.broadcast_us_per_64KiB") /
           1e3},
      {cat("gridbuffer re-read (", reread_mb, " MB)"),
       reread_mb * blocks_per_mb * rung("gridbuffer.reread_us_per_64KiB") /
           1e3},
      {cat("FM local write (", local_write_mb, " MB)"),
       local_write_mb * rung("core.write_ms_per_MB.local")},
      {cat("local read (", local_read_mb, " MB)"),
       local_read_mb * rung("vfs.read_ms_per_MB")},
      {cat("staged copy fetch (", copy_mb, " MB)"),
       copy_mb * rung("remote.fetch_ms_per_MB")},
      {"workflow fixed cost (1 run)", rung("workflow.fixed_ms")},
  };
  double sum_ms = 0;
  for (const auto& [label, ms] : rows) {
    if (ms <= 0) continue;
    sum_ms += ms;
    result.notes.push_back(cat("attribution ", shape.name, ": ", label, " = ",
                               ms, " ms"));
  }
  result.notes.push_back(cat(
      "attribution ", shape.name, ": sum of rungs = ", sum_ms,
      " ms; corrected makespan = ", makespan_s * 1e3, " ms; remainder = ",
      makespan_s * 1e3 - sum_ms, " ms"));
}

double fm_mb(const Iteration& it) {
  return static_cast<double>(
             counter_delta(it.before, it.after, "fm.bytes.read") +
             counter_delta(it.before, it.after, "fm.bytes.written")) /
         1e6;
}

}  // namespace

double fixed_overhead_ms(const Options& options, HostCorrector& host,
                         Tracer* tracer) {
  // The same shape with 1-byte files: what a run costs besides its data.
  const std::string workload = options.workload == "open-storm-tcp"
                                   ? "climate-buffers"
                                   : options.workload;
  const Shape tiny = shape_for(workload, 1e12);
  Samples fixed_ms;
  for (int i = 0; i < 5; ++i) {
    const Iteration it = run_once(tiny, 1.0, options.scratch / cat("fixed-", i),
                                  false, tracer, 0);
    const std::size_t interval = host.after_interval();
    if (it.error.empty()) fixed_ms.add(it.wall_s * 1e3, interval);
  }
  return median(fixed_ms.corrected(host));
}

void run_pipeline_workload(const Options& options, RunResult& result,
                           Tracer* tracer) {
  const Shape shape = shape_for(options.workload, kByteScale);
  obs::SpanCollector::global().enable(false);
  int next_root = 0;
  const auto fresh_root = [&] {
    return options.scratch / griddles::strings::cat("iter-", next_root++);
  };

  HostCorrector host(shape.host_sensitivity);
  // Set-up: everything before the first timed iteration, i.e. a fresh
  // testbed plus one warm-up run; repeated, median reported.
  Samples setup_s;
  Iteration reference;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = wall_s();
    reference = run_once(shape, kByteScale, fresh_root(), false, nullptr, 0);
    const double raw = wall_s() - t0;
    setup_s.add(raw, host.after_interval());
    if (!reference.error.empty()) {
      result.fail("warm-up run: " + reference.error);
      return;
    }
  }

  const double budget = options.trace ? options.seconds * 0.4
                                      : options.seconds;
  const int min_iterations = options.trace ? 3 : kMinIterations;
  Samples makespan_s;
  Samples cpu_ms_per_mb;
  std::vector<double> allocs_per_mb;
  std::vector<double> rpc_per_mb;
  std::vector<double> peak_mb;
  std::vector<double> cache_hits;
  const double start = wall_s();
  while (wall_s() - start < budget ||
         result.attempted < static_cast<std::uint64_t>(min_iterations)) {
    ++result.attempted;
    const std::uint64_t trace_id = result.attempted;
    const Iteration it = run_once(shape, kByteScale, fresh_root(), false,
                                  tracer, trace_id);
    const std::size_t interval = host.after_interval();
    std::string error = it.error;
    if (error.empty()) {
      const auto [read, written] = expected_fm_bytes(shape);
      error = count_guard(it.before, it.after, reference.before,
                          reference.after, read, written);
    }
    if (!error.empty()) {
      ++result.failed;
      result.fail("iteration " + std::to_string(trace_id) + ": " + error);
      continue;
    }
    const double mb = fm_mb(it);
    makespan_s.add(it.wall_s, interval);
    cpu_ms_per_mb.add(it.cpu_s * 1e3 / mb, interval);
    allocs_per_mb.push_back(static_cast<double>(it.allocs) / mb);
    peak_mb.push_back(it.peak_rss_mb);
    rpc_per_mb.push_back(
        static_cast<double>(
            counter_delta(it.before, it.after, "rpc.client.calls")) / mb);
    cache_hits.push_back(static_cast<double>(
        counter_delta(it.before, it.after, "gridbuffer.cache.hits")));
  }

  // One untimed run with every stage verifying its input bytes and the
  // final outputs hashed against the generator.
  ++result.attempted;
  const Iteration verified =
      run_once(shape, kByteScale, fresh_root(), true, nullptr, 0);
  if (!verified.error.empty()) {
    ++result.failed;
    result.fail("verifying run: " + verified.error);
  }
  host.after_interval();

  if (!options.trace) {
    // Spare probes after the last interval complete its window.
    host.after_interval();
    result.notes.push_back(host.summary());
    result.notes.push_back("makespan_s raw " + describe(makespan_s.raw()) +
                           "; corrected " +
                           describe(makespan_s.corrected(host)));
    result.notes.push_back("cpu_ms_per_MB raw " +
                           describe(cpu_ms_per_mb.raw()) + "; corrected " +
                           describe(cpu_ms_per_mb.corrected(host)));
    result.notes.push_back("peak_rss_mb per run " + describe(peak_mb));
    result.notes.push_back("gridbuffer.cache.hits per run " +
                           describe(cache_hits));
    result.add("makespan_s", median(makespan_s.corrected(host)), "s");
    result.add("cpu_ms_per_MB", median(cpu_ms_per_mb.corrected(host)),
               "ms/MB");
    // The mean: a per-iteration peak depends on how far writers run
    // ahead of readers, not on host speed, so it has no outliers to
    // guard against, and the mean of ~60 steadies faster than the median.
    result.add("peak_rss_mb", mean(peak_mb), "MB");
    result.add("setup_s", median(setup_s.corrected(host)), "s");
    return;
  }

  // Traced run: the span collector's own overhead on whole runs, then
  // the counts the attribution table multiplies rung costs by.
  Samples off_s;
  Samples on_s;
  for (int pair = 0; pair < 3; ++pair) {
    for (const bool on : {false, true}) {
      obs::SpanCollector::global().enable(on);
      const Iteration it =
          run_once(shape, kByteScale, fresh_root(), false, nullptr, 0);
      obs::SpanCollector::global().enable(false);
      (void)obs::SpanCollector::global().drain();
      const std::size_t interval = host.after_interval();
      if (it.error.empty()) (on ? on_s : off_s).add(it.wall_s, interval);
    }
  }
  result.add("workflow.fixed_ms", fixed_overhead_ms(options, host, tracer),
             "ms");
  const double off = median(off_s.corrected(host));
  const double traced = median(makespan_s.corrected(host));
  result.add("obs.span_overhead_pct",
             100.0 * (median(on_s.corrected(host)) - off) / off, "%");
  result.add("bench.trace_overhead_pct", 100.0 * (traced - off) / off, "%");
  attribution(shape, reference, traced, result);
  result.notes.push_back(host.summary());
  result.add("net.rpc_calls_per_MB", median(rpc_per_mb), "count");
  result.add("alloc.per_MB", median(allocs_per_mb), "count");
  result.add("host.probe_ms", median(host.probe_cpu_times()) * 1e3, "ms");
  result.add("host.raw_makespan_s", median(makespan_s.raw()), "s");
}

}  // namespace perfbench
