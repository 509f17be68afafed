// Tests for the analytic predictor, including agreement between the
// fluid model and the real scaled-clock runner.
#include <gtest/gtest.h>

#include "src/apps/paper_apps.h"
#include "src/common/tempfile.h"
#include "src/desim/predict.h"

namespace griddles::desim {
namespace {

using workflow::CouplingMode;
using workflow::WorkflowRunner;
using workflow::WorkflowSpec;

TEST(ClosedFormTest, BufferStreamThroughputLatencyBound) {
  testbed::LinkSpec wan{0.165, 0.40};  // AU-UK
  // 4 flushers x 4 KiB blocks: throughput is latency-bound, way below
  // the 400 KB/s the pipe could carry — the paper's §5.3 observation.
  const double bps = buffer_stream_bps(wan, 4096, 4, 4);
  EXPECT_LT(bps, 100e3);
  EXPECT_GT(bps, 10e3);
  // Wider windows / bigger blocks recover bandwidth (ablation C's point).
  EXPECT_GT(buffer_stream_bps(wan, 65536, 16, 16), 350e3);
  // Loopback streams are effectively unbounded.
  EXPECT_GT(buffer_stream_bps({0, 0}, 4096, 4, 4), 1e15);
}

TEST(ClosedFormTest, RunsCarryWindowOverFlushersBlocksPerRoundTrip) {
  testbed::LinkSpec wan{0.165, 0.40};  // AU-UK
  // The paper configuration (window == flushers) is one block per round
  // trip per flusher: exactly the pre-run closed form, 4 x 4 KiB / RTT.
  const double paper = buffer_stream_bps(wan, 4096, 4, 4);
  EXPECT_DOUBLE_EQ(paper, 4 * 4096.0 / (0.165 * 2 + 4096.0 / 0.40e6));
  EXPECT_NEAR(paper, 48154.2, 0.1);
  // A 16-block run per flusher (window 64 over 4) fills the 400 KB/s
  // pipe: bandwidth-bound, about 8x the paper stream.
  EXPECT_DOUBLE_EQ(buffer_stream_bps(wan, 4096, 64, 4), 0.40e6);
  // A window below the flusher count keeps fewer blocks in flight.
  EXPECT_DOUBLE_EQ(buffer_stream_bps(wan, 4096, 2, 4), paper / 2);
}

TEST(ClosedFormTest, CopyIsBandwidthBound) {
  testbed::LinkSpec wan{0.165, 0.40};
  const double copy_s = staged_copy_seconds(wan, 180u * 1000 * 1000);
  EXPECT_NEAR(copy_s, 180e6 / 0.4e6, 5.0);
  // Copy moves the same bytes far faster than a 4 KiB buffer stream.
  EXPECT_LT(copy_s, 180e6 / buffer_stream_bps(wan, 4096, 4, 4) / 3);
}

apps::AppKernel make_kernel(const std::string& name, double work,
                            std::vector<apps::StreamSpec> inputs,
                            std::vector<apps::StreamSpec> outputs) {
  apps::AppKernel kernel;
  kernel.name = name;
  kernel.work_units = work;
  kernel.timesteps = 10;
  kernel.inputs = std::move(inputs);
  kernel.outputs = std::move(outputs);
  return kernel;
}

std::vector<apps::AppKernel> test_pipeline() {
  constexpr std::uint64_t kBytes = 2 * 1000 * 1000;
  return {
      make_kernel("a", 10, {}, {{"x.dat", kBytes}}),
      make_kernel("b", 4, {{"x.dat", kBytes}}, {{"y.dat", kBytes}}),
      make_kernel("c", 8, {{"y.dat", kBytes}}, {{"z.dat", 1000}}),
  };
}

TEST(PredictTest, SequentialMatchesHandComputation) {
  auto spec =
      WorkflowSpec::from_pipeline("p", test_pipeline(), {"brecca"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kSequentialFiles;
  auto prediction = predict(*spec, options);
  ASSERT_TRUE(prediction.is_ok());
  auto brecca = testbed::find_machine("brecca");
  // a: work + 2MB write; b: work + 4MB IO; c: work + ~2MB.
  const double disk = brecca->disk_mb_per_s * 1e6;
  const double expected = (10 + 4 + 8) / brecca->speed +
                          (2e6 * 4 + 2000) / disk;
  EXPECT_NEAR(prediction->total_seconds, expected, 0.5);
}

TEST(PredictTest, BuffersBeatSequentialOnFastDiskMachine) {
  auto spec =
      WorkflowSpec::from_pipeline("p", test_pipeline(), {"brecca"});
  WorkflowRunner::Options sequential;
  sequential.mode = CouplingMode::kSequentialFiles;
  WorkflowRunner::Options buffered;
  buffered.mode = CouplingMode::kGridBuffers;
  auto seq = predict(*spec, sequential);
  auto buf = predict(*spec, buffered);
  ASSERT_TRUE(seq.is_ok());
  ASSERT_TRUE(buf.is_ok());
  EXPECT_LT(buf->total_seconds, seq->total_seconds);
}

TEST(PredictTest, DistributedSequentialIncludesCopies) {
  auto spec = WorkflowSpec::from_pipeline("p", test_pipeline(),
                                          {"brecca", "brecca", "bouscat"});
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kSequentialFiles;
  auto prediction = predict(*spec, options);
  ASSERT_TRUE(prediction.is_ok());
  EXPECT_GT(prediction->copy_seconds, 0.5);  // 0.4 MB over the AU-UK link
}

TEST(PredictTest, AgreesWithRealScaledRun) {
  // The fluid model and the real threaded runner should land within
  // ~35% of each other on a distributed buffered pipeline. The clock
  // must run slow enough that per-RPC wall overhead stays small in
  // model units: at 0.02 wall-s per model-s, 1 ms of scheduler noise is
  // only 0.05 model seconds (at 0.004 it was 0.25, which made the
  // measured side blow through the tolerance whenever ctest ran suites
  // in parallel on a loaded machine).
  auto scratch = TempDir::create("desim-agree");
  testbed::TestbedRuntime testbed(0.02, scratch->path().string());
  WorkflowRunner runner(testbed);
  auto spec = WorkflowSpec::from_pipeline("agree", test_pipeline(),
                                          {"brecca", "dione", "freak"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kGridBuffers;
  auto measured = runner.run(*spec, options);
  ASSERT_TRUE(measured.is_ok()) << measured.status();
  auto predicted = predict(*spec, options);
  ASSERT_TRUE(predicted.is_ok());
  EXPECT_NEAR(measured->total_seconds, predicted->total_seconds,
              0.5 * std::max(measured->total_seconds,
                              predicted->total_seconds));
}

TEST(PredictTest, SequentialAgreesWithRealRun) {
  auto scratch = TempDir::create("desim-seq");
  testbed::TestbedRuntime testbed(0.02, scratch->path().string());
  WorkflowRunner runner(testbed);
  auto spec =
      WorkflowSpec::from_pipeline("agree2", test_pipeline(), {"vpac27"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kSequentialFiles;
  auto measured = runner.run(*spec, options);
  ASSERT_TRUE(measured.is_ok()) << measured.status();
  auto predicted = predict(*spec, options);
  ASSERT_TRUE(predicted.is_ok());
  EXPECT_NEAR(measured->total_seconds, predicted->total_seconds,
              0.5 * std::max(measured->total_seconds,
                             predicted->total_seconds));
}

TEST(PredictTest, PaperClimatePredictionsHavePaperShape) {
  // Without running anything: the predictor alone should reproduce the
  // Table 4/5 *shape* from the calibrated constants.
  auto climate = apps::climate_pipeline();

  // Table 4 shape: buffers beat concurrent-files on every machine.
  for (const std::string machine :
       {"dione", "brecca", "freak", "bouscat", "vpac27"}) {
    auto spec = WorkflowSpec::from_pipeline("t4", climate, {machine});
    WorkflowRunner::Options files;
    files.mode = CouplingMode::kConcurrentFiles;
    WorkflowRunner::Options buffers;
    buffers.mode = CouplingMode::kGridBuffers;
    auto files_p = predict(*spec, files);
    auto buffers_p = predict(*spec, buffers);
    ASSERT_TRUE(files_p.is_ok());
    ASSERT_TRUE(buffers_p.is_ok());
    EXPECT_LT(buffers_p->total_seconds, files_p->total_seconds)
        << machine;
  }

  // Table 5 shape: buffers win on the metro link, sequential+copy wins
  // on the high-latency AU-UK pairing.
  {
    auto spec = WorkflowSpec::from_pipeline(
        "t5a", climate, {"brecca", "brecca", "dione"});
    WorkflowRunner::Options files;
    files.mode = CouplingMode::kSequentialFiles;
    WorkflowRunner::Options buffers;
    buffers.mode = CouplingMode::kGridBuffers;
    EXPECT_LT(predict(*spec, buffers)->total_seconds,
              predict(*spec, files)->total_seconds);
  }
  {
    auto spec = WorkflowSpec::from_pipeline(
        "t5b", climate, {"brecca", "brecca", "bouscat"});
    WorkflowRunner::Options files;
    files.mode = CouplingMode::kSequentialFiles;
    WorkflowRunner::Options buffers;
    buffers.mode = CouplingMode::kGridBuffers;
    buffers.writer_window = 4;  // == flusher_threads: the paper's stream
    EXPECT_GT(predict(*spec, buffers)->total_seconds,
              predict(*spec, files)->total_seconds);
    // The default 16-block runs are the paper's proposed fix: the same
    // pairing flips to buffers.
    WorkflowRunner::Options runs;
    runs.mode = CouplingMode::kGridBuffers;
    EXPECT_LT(predict(*spec, runs)->total_seconds,
              predict(*spec, files)->total_seconds);
  }
}

}  // namespace
}  // namespace griddles::desim
