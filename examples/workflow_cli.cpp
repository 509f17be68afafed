// griddles-run: compose and run a Grid workflow from a config file —
// the "tools ... for specifying and composing a new Grid application"
// the paper's conclusion calls for.
//
// Usage:
//   ./build/examples/workflow_cli <workflow.ini>
//   ./build/examples/workflow_cli --demo      (writes & runs an example)
//
// Telemetry (see DESIGN.md "Observability" and §11 "Causal tracing"):
//   --metrics=<file|->   dump a JSON metrics snapshot after the run
//   --trace=<file|->     per-file IO trace: record causal spans, dump
//                        each descriptor's `file` span (open to close,
//                        with byte and call counts) as one Chrome
//                        trace-event JSON line
//   --spans=<file|->     record causal spans, dump all of them as Chrome
//                        trace-event/Perfetto JSON (load in
//                        chrome://tracing, or analyze with
//                        tools/tracepath.py)
// Both views come from one drain of the same span records.
//
// Telemetry output paths are probed up front (a bad path exits 2 before
// any work runs), reports are dumped even when the run itself fails
// (chaos runs still produce a timeline), and a failed dump exits 3 with
// a typed error instead of silently losing the report.
//
// Fault injection (see DESIGN.md §7, README "Fault injection"):
//   --faults=<spec>      arm a deterministic fault plan for the run,
//                        e.g. --faults='seed=7;drop@rpc:*>vpac27:p=0.2'
//                        or an overload burst: 'burst@rpc:*:factor=8'
//
// Overload robustness (see DESIGN.md §14):
//   --deadline=<model s> end-to-end budget for the run; it propagates
//                        across every RPC hop, and expired work is
//                        rejected with DEADLINE_EXCEEDED instead of
//                        executing late. (Also `deadline =` in
//                        [workflow].) 0 = no budget.
//
// Crash restart (see DESIGN.md "Control-plane resilience"):
//   --checkpoint=<file>  journal completed stages/copies; rerunning with
//                        the same file resumes, skipping finished work
//                        (sequential-files mode only)
//   --scratch=<dir>      stable scratch root instead of a fresh temp dir
//                        (required for a checkpoint resume to find the
//                        previous run's outputs)
//
// [workflow] also accepts `gns_replicas = N` (multi-master replicated
// name service with failover; default 1) and `gns_shards = N` (buckets
// the namespace is rendezvous-hashed into; default 8). `--gns-shards=N`
// on the command line beats the ini key.
//
// Config format:
//   [workflow]
//   name = demo
//   mode = grid-buffers        ; sequential-files|concurrent-files|...
//   scale = 800                ; model seconds per wall second
//   byte_scale = 64            ; shrink real files, keep model times
//   schedule = auto            ; optional: pick machines automatically
//
//   [task:ccam]
//   machine = brecca
//   work = 2800
//   timesteps = 240
//   outputs = CCAM_OUT.DAT:180000000
//
//   [task:darlam]
//   machine = vpac27
//   work = 1310
//   inputs = CCAM_OUT.DAT:180000000
//   outputs = OUT.DAT:60000000
//   reread = 30000000
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "src/common/strings.h"
#include "src/common/tempfile.h"
#include "src/desim/predict.h"
#include "src/fault/plan.h"
#include "src/obs/export.h"
#include "src/obs/span.h"
#include "src/sched/scheduler.h"
#include "src/workflow/runner.h"

using namespace griddles;

namespace {

Result<std::vector<apps::StreamSpec>> parse_streams(
    const std::string& text) {
  std::vector<apps::StreamSpec> streams;
  if (strings::trim(text).empty()) return streams;
  for (const std::string& token : strings::split(text, ',')) {
    const auto parts = strings::split(std::string(strings::trim(token)),
                                      ':');
    if (parts.size() != 2) {
      return invalid_argument(
          strings::cat("stream '", token, "' is not path:bytes"));
    }
    const auto bytes = strings::parse_int(parts[1]);
    if (!bytes || *bytes < 0) {
      return invalid_argument(
          strings::cat("bad byte count in '", token, "'"));
    }
    streams.push_back(
        {parts[0], static_cast<std::uint64_t>(*bytes)});
  }
  return streams;
}

Result<workflow::CouplingMode> parse_mode(const std::string& name) {
  if (name == "sequential-files") {
    return workflow::CouplingMode::kSequentialFiles;
  }
  if (name == "concurrent-files") {
    return workflow::CouplingMode::kConcurrentFiles;
  }
  if (name == "grid-buffers") return workflow::CouplingMode::kGridBuffers;
  return invalid_argument(strings::cat("unknown mode '", name, "'"));
}

struct CliOptions {
  std::string fault_spec;
  std::string checkpoint_path;
  std::string scratch_dir;
  int fanout = -1;  // --fanout= override; -1 defers to workflow.fanout
  int gns_shards = -1;  // --gns-shards= override; -1 defers to the ini
  double deadline_s = -1;  // --deadline= (model s); -1 defers to the ini
};

Result<int> run_from_config(const Config& config, const CliOptions& cli) {
  GL_ASSIGN_OR_RETURN(const std::string name,
                      config.get_required("workflow.name"));
  GL_ASSIGN_OR_RETURN(
      const workflow::CouplingMode mode,
      parse_mode(config.get_or("workflow.mode", "grid-buffers")));
  const double scale = config.get_double_or("workflow.scale", 800);
  const double byte_scale =
      config.get_double_or("workflow.byte_scale", 64);
  const bool auto_schedule =
      config.get_or("workflow.schedule", "") == "auto";

  // Collect tasks in section order.
  std::vector<apps::AppKernel> pipeline;
  std::vector<std::string> machines;
  for (const std::string& section : config.sections()) {
    if (!strings::starts_with(section, "task:")) continue;
    auto key = [&](const char* k) { return strings::cat(section, ".", k); };
    apps::AppKernel kernel;
    kernel.name = section.substr(5);
    kernel.work_units = config.get_double_or(key("work"), 1);
    kernel.timesteps = static_cast<int>(
        config.get_int_or(key("timesteps"), 50));
    GL_ASSIGN_OR_RETURN(kernel.inputs,
                        parse_streams(config.get_or(key("inputs"), "")));
    GL_ASSIGN_OR_RETURN(kernel.outputs,
                        parse_streams(config.get_or(key("outputs"), "")));
    kernel.reread_bytes = static_cast<std::uint64_t>(
        config.get_int_or(key("reread"), 0));
    // Scale real byte counts.
    for (auto& stream : kernel.inputs) {
      stream.bytes = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(stream.bytes / byte_scale));
    }
    for (auto& stream : kernel.outputs) {
      stream.bytes = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(stream.bytes / byte_scale));
    }
    kernel.reread_bytes = static_cast<std::uint64_t>(
        kernel.reread_bytes / byte_scale);
    pipeline.push_back(kernel);
    machines.push_back(config.get_or(key("machine"), "brecca"));
  }
  if (pipeline.empty()) {
    return Result<int>(invalid_argument("no [task:*] sections"));
  }

  double predicted_total = -1;
  if (auto_schedule) {
    // Let the coupling-aware scheduler place the stages.
    workflow::Scheduler::Options sched_options;
    sched_options.runner.mode = mode;
    std::vector<std::string> candidates;
    for (const auto& machine : testbed::paper_machines()) {
      candidates.push_back(machine.name);
    }
    GL_ASSIGN_OR_RETURN(const workflow::ScheduleResult schedule,
                        workflow::Scheduler::schedule(
                            name, pipeline, candidates, sched_options));
    machines = schedule.machines;
    std::printf("scheduler chose:");
    for (std::size_t i = 0; i < machines.size(); ++i) {
      std::printf(" %s->%s", pipeline[i].name.c_str(),
                  machines[i].c_str());
    }
    std::printf("  (predicted %.0f s over %zu candidates)\n",
                schedule.predicted_seconds, schedule.candidates_scored);
    predicted_total = schedule.predicted_seconds;
  }

  // A --scratch dir is stable across runs (checkpoint resumes need the
  // previous run's outputs in place); otherwise use a fresh temp dir.
  std::optional<TempDir> temp_scratch;
  std::string scratch_root = cli.scratch_dir;
  if (scratch_root.empty()) {
    GL_ASSIGN_OR_RETURN(temp_scratch, TempDir::create("griddles-run"));
    scratch_root = temp_scratch->path().string();
  } else {
    std::error_code ec;
    std::filesystem::create_directories(scratch_root, ec);
    if (ec) {
      return io_error(strings::cat("cannot create scratch dir ",
                                   scratch_root, ": ", ec.message()));
    }
  }
  testbed::TestbedRuntime testbed(1.0 / scale, scratch_root, byte_scale);
  // With --spans= or --trace= active, stamp spans with model time from
  // this run's testbed clock; the guard unhooks it before the testbed
  // dies.
  struct ModelClockScope {
    explicit ModelClockScope(const Clock* clock) {
      if (obs::SpanCollector::global().enabled()) {
        obs::SpanCollector::global().set_model_clock(clock);
      }
    }
    ~ModelClockScope() { obs::SpanCollector::global().set_model_clock(nullptr); }
  } model_clock_scope(&testbed.clock());
  std::shared_ptr<fault::Plan> plan;
  if (!cli.fault_spec.empty()) {
    GL_ASSIGN_OR_RETURN(plan, fault::Plan::parse(cli.fault_spec));
    fault::arm(plan, &testbed.clock());
    std::printf("fault plan armed: %zu rule(s), seed %llu\n",
                plan->rules().size(), (unsigned long long)plan->seed());
  }
  workflow::WorkflowRunner runner(testbed);
  GL_ASSIGN_OR_RETURN(
      const workflow::WorkflowSpec spec,
      workflow::WorkflowSpec::from_pipeline(name, pipeline, machines));
  workflow::WorkflowRunner::Options options;
  options.mode = mode;
  options.gns_replicas = static_cast<int>(
      config.get_int_or("workflow.gns_replicas", 1));
  // Namespace shard count: --gns-shards= beats the ini key.
  options.gns_shards =
      cli.gns_shards > 0
          ? cli.gns_shards
          : static_cast<int>(config.get_int_or("workflow.gns_shards",
                                               options.gns_shards));
  // Multicast relay fanout: --fanout= beats the ini key; 0 disables.
  options.multicast_fanout =
      cli.fanout >= 0
          ? cli.fanout
          : static_cast<int>(config.get_int_or(
                "workflow.fanout", options.multicast_fanout));
  options.checkpoint_path = cli.checkpoint_path;
  // End-to-end run deadline in model seconds: --deadline= beats the ini
  // key; 0 (the default) runs without a budget.
  options.deadline_s =
      cli.deadline_s >= 0
          ? cli.deadline_s
          : config.get_double_or("workflow.deadline", 0);

  std::printf("running '%s' (%s, %.0fx time compression)...\n",
              name.c_str(),
              std::string(workflow::coupling_mode_name(mode)).c_str(),
              scale);
  auto run_result = runner.run(spec, options);
  if (plan) {
    fault::disarm();
    std::printf("faults injected: %llu\n",
                (unsigned long long)plan->injection_count());
  }
  GL_ASSIGN_OR_RETURN(const workflow::WorkflowReport report,
                      std::move(run_result));
  for (const auto& task : report.tasks) {
    std::printf("  %-16s on %-9s finished at %8.0f model s "
                "(read %llu, wrote %llu bytes)\n",
                task.name.c_str(), task.machine.c_str(), task.finished_s,
                (unsigned long long)task.bytes_read,
                (unsigned long long)task.bytes_written);
  }
  for (const auto& copy : report.copies) {
    std::printf("  copy %-12s %s->%s: %.0f s\n", copy.path.c_str(),
                copy.from.c_str(), copy.to.c_str(), copy.seconds);
  }
  std::printf("total: %.0f model seconds\n", report.total_seconds);
  if (predicted_total > 0) {
    desim::record_accuracy(predicted_total, report.total_seconds);
    std::printf("prediction accuracy: %.2fx actual/predicted\n",
                report.total_seconds / predicted_total);
  }
  return 0;
}

constexpr const char* kDemoConfig = R"(# auto-generated demo workflow
[workflow]
name = demo-climate
mode = grid-buffers
scale = 2000
byte_scale = 256
schedule = auto

[task:ccam]
work = 2800
timesteps = 120
outputs = CCAM_OUT.DAT:180000000

[task:cc2lam]
work = 15
timesteps = 120
inputs = CCAM_OUT.DAT:180000000
outputs = LAM_IN.DAT:180000000

[task:darlam]
work = 1310
timesteps = 120
inputs = LAM_IN.DAT:180000000
outputs = DARLAM_OUT.DAT:60000000
reread = 30000000
)";

/// Dumps every requested telemetry report. Returns the first failure but
/// still attempts the rest — a broken metrics path must not also lose
/// the span timeline.
Status dump_telemetry(const std::string& metrics_path,
                      const std::string& trace_path,
                      const std::string& spans_path) {
  Status first = Status::ok();
  const auto note = [&first](Status status) {
    if (!status.is_ok()) {
      std::fprintf(stderr, "telemetry: %s\n", status.to_string().c_str());
      if (first.is_ok()) first = std::move(status);
    }
  };
  if (!metrics_path.empty()) {
    note(obs::write_json_file(metrics_path, obs::snapshot()));
  }
  if (trace_path.empty() && spans_path.empty()) return first;
  const auto spans = obs::SpanCollector::global().drain();
  if (!trace_path.empty()) {
    std::string lines;
    for (const auto& span : spans) {
      if (span.kind != obs::SpanKind::kFile) continue;
      lines += obs::to_chrome_event(span);
      lines.push_back('\n');
    }
    note(obs::write_text_file(trace_path, lines));
  }
  if (!spans_path.empty()) {
    note(obs::write_text_file(spans_path, obs::to_chrome_json(spans)));
  }
  return first;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string trace_path;
  std::string spans_path;
  CliOptions cli;
  std::string input;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (strings::starts_with(arg, "--metrics=")) {
      metrics_path = arg.substr(10);
    } else if (strings::starts_with(arg, "--trace=")) {
      trace_path = arg.substr(8);
    } else if (strings::starts_with(arg, "--spans=")) {
      spans_path = arg.substr(8);
    } else if (strings::starts_with(arg, "--faults=")) {
      cli.fault_spec = arg.substr(9);
    } else if (strings::starts_with(arg, "--checkpoint=")) {
      cli.checkpoint_path = arg.substr(13);
    } else if (strings::starts_with(arg, "--fanout=")) {
      cli.fanout = std::atoi(arg.c_str() + 9);
    } else if (strings::starts_with(arg, "--gns-shards=")) {
      cli.gns_shards = std::atoi(arg.c_str() + 13);
    } else if (strings::starts_with(arg, "--scratch=")) {
      cli.scratch_dir = arg.substr(10);
    } else if (strings::starts_with(arg, "--deadline=")) {
      cli.deadline_s = std::atof(arg.c_str() + 11);
    } else if (input.empty()) {
      input = arg;
    } else {
      usage_error = true;
    }
  }
  if (input.empty() || usage_error) {
    std::fprintf(stderr,
                 "usage: %s [--metrics=<file|->] [--trace=<file|->] "
                 "[--spans=<file|->] [--faults=<spec>] "
                 "[--checkpoint=<file>] [--scratch=<dir>] "
                 "[--fanout=<n>] [--gns-shards=<n>] "
                 "[--deadline=<model s>] "
                 "<workflow.ini> | --demo\n",
                 argv[0]);
    return 2;
  }
  // Fail fast on an unwritable telemetry path: better a usage error now
  // than a minutes-long run whose report cannot be written at the end.
  for (const std::string* path : {&metrics_path, &trace_path, &spans_path}) {
    if (path->empty()) continue;
    if (const Status s = obs::probe_writable(*path); !s.is_ok()) {
      std::fprintf(stderr, "telemetry: %s\n", s.to_string().c_str());
      return 2;
    }
  }
  if (!trace_path.empty() || !spans_path.empty()) {
    obs::SpanCollector::global().enable(true);
  }

  Result<Config> config = invalid_argument("unset");
  if (input == "--demo") {
    std::printf("demo workflow config:\n%s\n", kDemoConfig);
    config = Config::parse(kDemoConfig);
  } else {
    config = Config::load(input);
  }
  if (!config.is_ok()) {
    std::fprintf(stderr, "config: %s\n",
                 config.status().to_string().c_str());
    return 1;
  }
  auto result = run_from_config(*config, cli);
  // Telemetry is dumped whether the run succeeded or not: a faulted or
  // crashed run's metrics and span timeline are exactly what a chaos
  // investigation needs.
  const Status dumped = dump_telemetry(metrics_path, trace_path, spans_path);
  if (!result.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  if (!dumped.is_ok()) return 3;
  return *result;
}
