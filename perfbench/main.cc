// perfbench: the wall-clock benchmark's measuring binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--trace-out <file>]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer rungs, and writes the benchmark's spans as a Chrome trace.
// The last stdout line is the JSON result; the exit code is nonzero when
// an output check or count guard failed.

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "perfbench/bench.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/export.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

void usage() {
  std::cerr << "usage: perfbench --workload <climate-buffers|"
               "durability-staged|open-storm-tcp|ensemble-broadcast> "
               "--seed <n> --seconds <s> --trace <0|1> --scratch <dir> "
               "[--trace-out <file>]\n";
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--scratch") {
      options.scratch = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() &&
         !options.scratch.empty() && options.seconds > 0;
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    if (i > 0) out += ", ";
    out += griddles::obs::json_quote(metric.name);
    out += ": {\"value\": " + griddles::obs::json_number(metric.value);
    out += ", \"unit\": " + griddles::obs::json_quote(metric.unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  const bool pipeline = options.workload == "climate-buffers" ||
                        options.workload == "durability-staged" ||
                        options.workload == "ensemble-broadcast";
  if (!pipeline && options.workload != "open-storm-tcp") {
    usage();
    return 2;
  }
  griddles::log::Logger::instance().set_level(griddles::log::Level::kWarn);
  std::filesystem::create_directories(options.scratch);

  RunResult result;
  perfbench::Tracer tracer;
  perfbench::Tracer* spans = options.trace ? &tracer : nullptr;
  // The traced run climbs the ladder first, so the workload's attribution
  // table can multiply its per-run counts by the rung costs.
  if (options.trace) perfbench::run_ladder(options, result, tracer);
  if (pipeline) {
    perfbench::run_pipeline_workload(options, result, spans);
  } else {
    perfbench::run_storm_workload(options, result, spans);
  }

  for (const perfbench::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.fail("metric " + metric.name + " is not a finite number");
    }
  }
  if (options.trace) {
    for (const auto& [name, totals] : tracer.self_times()) {
      const auto [self_s, count] = totals;
      result.notes.push_back(griddles::strings::cat(
          "span ", name, ": n=", count, " self_ms=", self_s * 1e3,
          " self_us_each=", self_s * 1e6 / count));
    }
    if (!options.trace_out.empty()) {
      std::ofstream(options.trace_out) << tracer.chrome_json();
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(options.scratch, ec);

  for (const std::string& note : result.notes) std::cout << note << "\n";
  std::cout << result_json(result) << std::endl;
  return result.correct ? 0 : 1;
}
