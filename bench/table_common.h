// Shared harness for the Table 2-5 reproduction benches.
//
// Each bench replays the paper experiment on the modelled testbed with a
// scaled clock (default: 1 model second = 1/1500 wall seconds, i.e. a
// 99-minute experiment in ~4 wall seconds) and scaled byte counts
// (default 64x smaller real files, with link/disk rates rescaled so model
// times are preserved; the Grid Buffer block size shrinks by the same
// factor so streams keep the paper's latency sensitivity).
//
// Flags: --fast (coarser scale for smoke runs), --exact (1:1 bytes),
//        --scale=<wall_per_model denominator>,
//        --spans=<file|-> (causal trace as Chrome trace-event JSON;
//        feed it to tools/tracepath.py for critical-path analysis).
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/apps/paper_apps.h"
#include "src/common/strings.h"
#include "src/common/tempfile.h"
#include "src/desim/predict.h"
#include "src/obs/export.h"
#include "src/obs/span.h"
#include "src/workflow/runner.h"

namespace griddles::bench {

struct TableConfig {
  double wall_per_model = 1.0 / 800.0;
  double byte_scale = 64.0;
  std::string spans_path;  // empty = causal tracing off

  static TableConfig from_args(int argc, char** argv) {
    TableConfig config;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--fast") {
        config.wall_per_model = 1.0 / 4000.0;
        config.byte_scale = 256.0;
      } else if (arg == "--exact") {
        config.byte_scale = 1.0;
      } else if (strings::starts_with(arg, "--scale=")) {
        const auto denom = strings::parse_double(arg.substr(8));
        if (denom && *denom > 0) config.wall_per_model = 1.0 / *denom;
      } else if (strings::starts_with(arg, "--spans=")) {
        config.spans_path = arg.substr(8);
      }
    }
    if (!config.spans_path.empty()) {
      obs::SpanCollector::global().enable(true);
    }
    return config;
  }
};

/// Drains the collected spans to `config.spans_path` after the bench's
/// experiments have run. Returns false (after a stderr note) only when
/// a requested file cannot be written.
inline bool write_spans(const TableConfig& config) {
  if (config.spans_path.empty()) return true;
  const Status wrote = obs::write_text_file(
      config.spans_path,
      obs::to_chrome_json(obs::SpanCollector::global().drain()));
  if (!wrote.is_ok()) {
    std::fprintf(stderr, "cannot write spans: %s\n",
                 wrote.to_string().c_str());
    return false;
  }
  if (config.spans_path != "-") {
    std::printf("wrote %s\n", config.spans_path.c_str());
  }
  return true;
}

/// Runner options matching the paper's Grid Buffer deployment: 4 KiB
/// blocks (scaled), one block per kWrite over 4 senders — the
/// latency-sensitive configuration of §5.3.
inline workflow::WorkflowRunner::Options paper_options(
    workflow::CouplingMode mode, const TableConfig& config) {
  workflow::WorkflowRunner::Options options;
  options.mode = mode;
  options.buffer_block = static_cast<std::uint32_t>(
      std::max(64.0, 4096.0 / config.byte_scale));
  // Low-latency edges carry large blocks: far from the latency-bound
  // regime, block size only sets the RPC/wakeup count, so this removes
  // measurement overhead without touching modelled time.
  options.buffer_block_fast_link = 65536;
  options.writer_window = 4;
  return options;
}

/// The same options in *model* units, for the analytic predictor.
inline workflow::WorkflowRunner::Options predict_options(
    workflow::CouplingMode mode) {
  workflow::WorkflowRunner::Options options;
  options.mode = mode;
  options.buffer_block = 4096;
  options.writer_window = 4;
  return options;
}

/// One measured experiment: run the real stack at scale and predict
/// analytically at paper scale.
struct ExperimentResult {
  workflow::WorkflowReport measured;  // model seconds
  desim::Prediction predicted;        // model seconds
};

/// Builds a pipeline at a given byte scale (climate_pipeline or
/// durability_pipeline fit directly).
using PipelineFactory = std::vector<apps::AppKernel> (*)(double);

inline Result<ExperimentResult> run_experiment(
    const std::string& name, PipelineFactory factory,
    const std::vector<std::string>& machines, workflow::CouplingMode mode,
    const TableConfig& config) {
  GL_ASSIGN_OR_RETURN(auto scratch, TempDir::create("bench-" + name));
  testbed::TestbedRuntime testbed(config.wall_per_model,
                                  scratch.path().string(),
                                  config.byte_scale);
  // Span model timestamps come from this experiment's scaled clock; the
  // scope resets on exit so a later experiment never reads a destroyed
  // testbed's clock.
  struct ModelClockScope {
    explicit ModelClockScope(const Clock* clock) {
      if (obs::SpanCollector::global().enabled()) {
        obs::SpanCollector::global().set_model_clock(clock);
      }
    }
    ~ModelClockScope() {
      obs::SpanCollector::global().set_model_clock(nullptr);
    }
  } model_clock_scope(&testbed.clock());
  workflow::WorkflowRunner runner(testbed);

  // Scaled pipeline for the real run; paper-scale spec for prediction.
  GL_ASSIGN_OR_RETURN(const workflow::WorkflowSpec scaled_spec,
                      workflow::WorkflowSpec::from_pipeline(
                          name, factory(config.byte_scale), machines));
  GL_ASSIGN_OR_RETURN(const workflow::WorkflowSpec paper_spec,
                      workflow::WorkflowSpec::from_pipeline(
                          name, factory(1.0), machines));

  ExperimentResult result;
  GL_ASSIGN_OR_RETURN(result.measured,
                      runner.run(scaled_spec, paper_options(mode, config)));
  GL_ASSIGN_OR_RETURN(result.predicted,
                      desim::predict(paper_spec, predict_options(mode)));
  return result;
}

/// Collects a bench's headline timings and writes them, plus a full
/// metrics snapshot (per-mode open counts, byte counters, histograms),
/// as `BENCH_<name>.json` in the working directory. CI uploads these as
/// artifacts; compare runs with `diff <(jq -S . a.json) <(jq -S . b.json)`.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void add_time(std::string key, double seconds) {
    times_.emplace_back(std::move(key), seconds);
  }

  /// Writes BENCH_<name>.json; returns false (after a stderr note) if
  /// the file cannot be created.
  bool write() const {
    std::string json = "{\"bench\":";
    json += obs::json_quote(name_);
    json += ",\"times\":{";
    for (std::size_t i = 0; i < times_.size(); ++i) {
      if (i > 0) json.push_back(',');
      json += obs::json_quote(times_[i].first);
      json.push_back(':');
      json += obs::json_number(times_[i].second);
    }
    json += "},\"metrics\":";
    json += obs::to_json(obs::snapshot());
    json.push_back('}');
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> times_;
};

inline std::string hms(double seconds) {
  return strings::format_hms(static_cast<long long>(seconds + 0.5));
}

inline std::string mmss(double seconds) {
  return strings::format_ms(static_cast<long long>(seconds + 0.5));
}

inline void print_header(const char* table, const char* caption) {
  std::printf("\n=== %s: %s ===\n", table, caption);
  std::printf(
      "(real GriddLeS stack on the modelled testbed; times in model "
      "units)\n\n");
}

}  // namespace griddles::bench
