// Analytic workflow-time predictor (fluid-flow simulation).
//
// A deterministic, instantaneous cross-check for the real scaled-clock
// runs: tasks are fluids that advance under processor sharing; edges cap
// a consumer's progress by what its producer has delivered (through the
// modelled disk, link, or Grid Buffer stream). Integration is discrete
// (dt = 0.25 model seconds), which is plenty for experiments measured in
// minutes. The tests assert that real runs and predictions agree within
// tolerance; the table benches print both columns.
#pragma once

#include <map>
#include <string>

#include "src/workflow/runner.h"

namespace griddles::desim {

struct Prediction {
  std::map<std::string, double> task_finish_s;  // cumulative, per task
  double copy_seconds = 0;   // staging copies (sequential mode)
  double total_seconds = 0;
};

/// Predicts the outcome of WorkflowRunner::run for the same spec/options
/// on the paper testbed (byte_scale-independent: uses paper byte counts).
Result<Prediction> predict(const workflow::WorkflowSpec& spec,
                           const workflow::WorkflowRunner::Options& options);

/// Records one predicted-vs-actual comparison into the metrics registry:
/// bumps `desim.predictions.checked` and observes actual/predicted in the
/// `desim.accuracy.ratio` histogram (1.0 = perfect). Call it after a real
/// run whose spec/options were previously fed to predict().
void record_accuracy(double predicted_s, double actual_s);

/// Closed-form throughput of a Grid Buffer stream over a link: bytes per
/// second. `flusher_threads` senders each carry runs of
/// window_blocks / flusher_threads blocks per round trip (DESIGN.md §16).
double buffer_stream_bps(const testbed::LinkSpec& link,
                         std::uint32_t block_size, std::size_t window_blocks,
                         int flusher_threads);

/// Closed-form duration of a parallel-stream staged copy.
double staged_copy_seconds(const testbed::LinkSpec& link,
                           std::uint64_t bytes);

}  // namespace griddles::desim
