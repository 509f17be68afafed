// Tests for workflow specs (edges, topo order) and the WorkflowRunner
// across all three coupling disciplines, including the headline
// invariant: identical application code and results in every mode.
#include <gtest/gtest.h>

#include "src/apps/paper_apps.h"
#include "src/common/tempfile.h"
#include "src/vfs/local_client.h"
#include "src/workflow/runner.h"

namespace griddles::workflow {
namespace {

apps::AppKernel make_kernel(const std::string& name, double work,
                            std::vector<apps::StreamSpec> inputs,
                            std::vector<apps::StreamSpec> outputs) {
  apps::AppKernel kernel;
  kernel.name = name;
  kernel.work_units = work;
  kernel.timesteps = 8;
  kernel.inputs = std::move(inputs);
  kernel.outputs = std::move(outputs);
  kernel.verify_inputs = true;  // tests always verify content integrity
  return kernel;
}

/// A small 3-stage pipeline: gen -> filter -> sink.
std::vector<apps::AppKernel> tiny_pipeline() {
  constexpr std::uint64_t kBytes = 200 * 1000;
  return {
      make_kernel("gen", 6, {}, {{"mid.dat", kBytes}}),
      make_kernel("filter", 2, {{"mid.dat", kBytes}},
                  {{"out.dat", kBytes / 2}}),
      make_kernel("sink", 4, {{"out.dat", kBytes / 2}},
                  {{"final.dat", 1000}}),
  };
}

TEST(SpecTest, InfersEdges) {
  auto spec = WorkflowSpec::from_pipeline("t", tiny_pipeline(), {"jagan"});
  ASSERT_TRUE(spec.is_ok());
  auto edges = infer_edges(*spec);
  ASSERT_TRUE(edges.is_ok());
  ASSERT_EQ(edges->size(), 2u);
  // Edges sorted by path: mid.dat, out.dat.
  EXPECT_EQ((*edges)[0].path, "mid.dat");
  EXPECT_EQ((*edges)[0].producer, 0u);
  EXPECT_EQ((*edges)[0].consumers, std::vector<std::size_t>{1});
  EXPECT_EQ((*edges)[1].path, "out.dat");
  EXPECT_EQ((*edges)[1].producer, 1u);
}

TEST(SpecTest, TopologicalOrder) {
  auto spec = WorkflowSpec::from_pipeline("t", tiny_pipeline(), {"jagan"});
  auto edges = infer_edges(*spec);
  auto order = topological_order(*spec, *edges);
  ASSERT_TRUE(order.is_ok());
  EXPECT_EQ(*order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SpecTest, CycleDetected) {
  std::vector<apps::AppKernel> cyclic = {
      make_kernel("a", 1, {{"x", 10}}, {{"y", 10}}),
      make_kernel("b", 1, {{"y", 10}}, {{"x", 10}}),
  };
  auto spec = WorkflowSpec::from_pipeline("c", cyclic, {"jagan"});
  auto edges = infer_edges(*spec);
  ASSERT_TRUE(edges.is_ok());
  EXPECT_FALSE(topological_order(*spec, *edges).is_ok());
}

TEST(SpecTest, DoubleProducerRejected) {
  std::vector<apps::AppKernel> bad = {
      make_kernel("a", 1, {}, {{"x", 10}}),
      make_kernel("b", 1, {}, {{"x", 10}}),
  };
  auto spec = WorkflowSpec::from_pipeline("d", bad, {"jagan"});
  EXPECT_FALSE(infer_edges(*spec).is_ok());
}

TEST(SpecTest, MachineCountValidation) {
  EXPECT_FALSE(
      WorkflowSpec::from_pipeline("t", tiny_pipeline(), {}).is_ok());
  EXPECT_FALSE(WorkflowSpec::from_pipeline("t", tiny_pipeline(),
                                           {"a", "b"})
                   .is_ok());
  EXPECT_TRUE(WorkflowSpec::from_pipeline("t", tiny_pipeline(),
                                          {"jagan", "dione", "vpac27"})
                  .is_ok());
}

TEST(SpecTest, ExternalInputsDetected) {
  std::vector<apps::AppKernel> kernels = {
      make_kernel("only", 1, {{"given.dat", 100}}, {{"out", 10}}),
  };
  auto spec = WorkflowSpec::from_pipeline("e", kernels, {"jagan"});
  auto edges = infer_edges(*spec);
  auto externals = external_inputs(*spec, *edges, 0);
  ASSERT_EQ(externals.size(), 1u);
  EXPECT_EQ(externals[0].path, "given.dat");
}

class RunnerTest : public ::testing::Test {
 protected:
  RunnerTest() : dir_(*TempDir::create("wf-test")) {}

  /// 1 model second = 0.2 wall ms: a minute-long model run fits in ~12ms.
  testbed::TestbedRuntime make_testbed() {
    return testbed::TestbedRuntime(0.0002, dir_.path().string(),
                                   /*byte_scale=*/1.0);
  }

  TempDir dir_;
};

TEST_F(RunnerTest, SequentialFilesSingleMachine) {
  auto testbed = make_testbed();
  WorkflowRunner runner(testbed);
  auto spec = WorkflowSpec::from_pipeline("seq", tiny_pipeline(), {"jagan"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kSequentialFiles;
  auto report = runner.run(*spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  ASSERT_EQ(report->tasks.size(), 3u);
  EXPECT_TRUE(report->copies.empty());
  // Stages strictly ordered.
  EXPECT_LE(report->tasks[0].finished_s, report->tasks[1].started_s + 1e-6);
  EXPECT_LE(report->tasks[1].finished_s, report->tasks[2].started_s + 1e-6);
  // jagan at 0.35 units/s: gen alone needs ~17 model seconds.
  EXPECT_GT(report->total_seconds, (6 + 2 + 4) / 0.35 * 0.9);
}

TEST_F(RunnerTest, GridBuffersPipelineOverlapsStages) {
  auto testbed = make_testbed();
  WorkflowRunner runner(testbed);
  auto spec = WorkflowSpec::from_pipeline("buf", tiny_pipeline(), {"jagan"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kGridBuffers;
  auto report = runner.run(*spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  ASSERT_EQ(report->tasks.size(), 3u);
  // Downstream stages START before upstream stages FINISH (overlap).
  const TaskResult* gen = report->task("gen");
  const TaskResult* sink = report->task("sink");
  ASSERT_NE(gen, nullptr);
  ASSERT_NE(sink, nullptr);
  EXPECT_LT(sink->started_s, gen->finished_s);
}

TEST_F(RunnerTest, ConcurrentFilesTailsAndCompletes) {
  auto testbed = make_testbed();
  WorkflowRunner runner(testbed);
  auto spec = WorkflowSpec::from_pipeline("cf", tiny_pipeline(), {"jagan"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kConcurrentFiles;
  options.poll_interval = std::chrono::milliseconds(200);
  auto report = runner.run(*spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  ASSERT_EQ(report->tasks.size(), 3u);
}

TEST_F(RunnerTest, ConcurrentFilesRequiresOneMachine) {
  auto testbed = make_testbed();
  WorkflowRunner runner(testbed);
  auto spec = WorkflowSpec::from_pipeline(
      "cf2", tiny_pipeline(), {"jagan", "dione", "vpac27"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kConcurrentFiles;
  EXPECT_FALSE(runner.run(*spec, options).is_ok());
}

TEST_F(RunnerTest, DistributedSequentialCopiesBetweenMachines) {
  auto testbed = make_testbed();
  WorkflowRunner runner(testbed);
  auto spec = WorkflowSpec::from_pipeline(
      "dist", tiny_pipeline(), {"brecca", "dione", "freak"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kSequentialFiles;
  auto report = runner.run(*spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  // Two cross-machine edges -> two staged copies.
  ASSERT_EQ(report->copies.size(), 2u);
  EXPECT_EQ(report->copies[0].from, "brecca");
  EXPECT_EQ(report->copies[0].to, "dione");
  EXPECT_GT(report->copies[0].seconds, 0.0);
}

TEST_F(RunnerTest, DistributedBuffersStreamAcrossMachines) {
  auto testbed = make_testbed();
  WorkflowRunner runner(testbed);
  auto spec = WorkflowSpec::from_pipeline(
      "distbuf", tiny_pipeline(), {"brecca", "dione", "freak"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kGridBuffers;
  auto report = runner.run(*spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), 3u);
  EXPECT_TRUE(report->copies.empty());
}

TEST_F(RunnerTest, SameResultBytesInEveryMode) {
  // The headline claim: switching coupling changes ONLY timing, never
  // results. verify_inputs=true already checks every transferred byte;
  // here we additionally compare the final artifact across modes.
  std::map<std::string, std::uint64_t> checksums;
  for (const CouplingMode mode :
       {CouplingMode::kSequentialFiles, CouplingMode::kConcurrentFiles,
        CouplingMode::kGridBuffers}) {
    auto scratch = TempDir::create("wf-mode");
    testbed::TestbedRuntime testbed(0.0002, scratch->path().string());
    WorkflowRunner runner(testbed);
    auto spec =
        WorkflowSpec::from_pipeline("same", tiny_pipeline(), {"jagan"});
    ASSERT_TRUE(spec.is_ok());
    WorkflowRunner::Options options;
    options.mode = mode;
    auto report = runner.run(*spec, options);
    ASSERT_TRUE(report.is_ok())
        << coupling_mode_name(mode) << ": " << report.status();
    auto final_bytes = vfs::read_file(
        (std::filesystem::path(scratch->path()) / "jagan" / "final.dat")
            .string());
    ASSERT_TRUE(final_bytes.is_ok()) << coupling_mode_name(mode);
    checksums[std::string(coupling_mode_name(mode))] = fnv1a(*final_bytes);
  }
  ASSERT_EQ(checksums.size(), 3u);
  const auto first = checksums.begin()->second;
  for (const auto& [mode, checksum] : checksums) {
    EXPECT_EQ(checksum, first) << mode;
  }
}

TEST_F(RunnerTest, BroadcastEdgeFeedsTwoConsumers) {
  constexpr std::uint64_t kBytes = 100 * 1000;
  std::vector<apps::AppKernel> fanout = {
      make_kernel("src", 3, {}, {{"shared.dat", kBytes}}),
      make_kernel("left", 2, {{"shared.dat", kBytes}}, {{"l.out", 100}}),
      make_kernel("right", 2, {{"shared.dat", kBytes}}, {{"r.out", 100}}),
  };
  auto testbed = make_testbed();
  WorkflowRunner runner(testbed);
  auto spec = WorkflowSpec::from_pipeline("fan", fanout, {"dione"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kGridBuffers;
  auto report = runner.run(*spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), 3u);
}

TEST_F(RunnerTest, BroadcastAcrossMachines) {
  // One writer on brecca, readers on dione and freak: the buffer sits at
  // the first reader's end (paper §3.1) and both readers see the whole
  // stream across their own links.
  constexpr std::uint64_t kBytes = 80 * 1000;
  std::vector<apps::AppKernel> fanout = {
      make_kernel("src", 3, {}, {{"shared.dat", kBytes}}),
      make_kernel("left", 2, {{"shared.dat", kBytes}}, {{"l.out", 100}}),
      make_kernel("right", 2, {{"shared.dat", kBytes}}, {{"r.out", 100}}),
  };
  auto testbed = make_testbed();
  WorkflowRunner runner(testbed);
  WorkflowSpec spec;
  spec.name = "xfan";
  spec.tasks = {TaskSpec{fanout[0], "brecca"},
                TaskSpec{fanout[1], "dione"},
                TaskSpec{fanout[2], "freak"}};
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kGridBuffers;
  auto report = runner.run(spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), 3u);
  // verify_inputs=true in make_kernel already proved byte integrity on
  // both consumers.
}

TEST_F(RunnerTest, RerreadThroughBufferCache) {
  // DARLAM-style: consumer re-reads the head of its streamed input.
  constexpr std::uint64_t kBytes = 150 * 1000;
  auto pipeline = std::vector<apps::AppKernel>{
      make_kernel("w", 2, {}, {{"s.dat", kBytes}}),
      make_kernel("r", 2, {{"s.dat", kBytes}}, {{"done", 100}}),
  };
  pipeline[1].reread_bytes = kBytes / 3;
  auto testbed = make_testbed();
  WorkflowRunner runner(testbed);
  auto spec = WorkflowSpec::from_pipeline("rr", pipeline, {"brecca"});
  ASSERT_TRUE(spec.is_ok());
  WorkflowRunner::Options options;
  options.mode = CouplingMode::kGridBuffers;
  auto report = runner.run(*spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
}

TEST_F(RunnerTest, PaperPipelinesAreWellFormed) {
  for (double scale : {1.0, 64.0}) {
    auto durability = apps::durability_pipeline(scale);
    EXPECT_EQ(durability.size(), 5u);
    auto spec = WorkflowSpec::from_pipeline("dur", durability, {"jagan"});
    ASSERT_TRUE(spec.is_ok());
    auto edges = infer_edges(*spec);
    ASSERT_TRUE(edges.is_ok());
    EXPECT_GE(edges->size(), 8u);  // the Figure 5 JOB.* files
    ASSERT_TRUE(topological_order(*spec, *edges).is_ok());

    auto climate = apps::climate_pipeline(scale);
    EXPECT_EQ(climate.size(), 3u);
    auto cspec = WorkflowSpec::from_pipeline("cli", climate, {"dione"});
    auto cedges = infer_edges(*cspec);
    ASSERT_TRUE(cedges.is_ok());
    EXPECT_EQ(cedges->size(), 2u);
  }
  EXPECT_TRUE(apps::kernel_named(apps::climate_pipeline(), "darlam")
                  .is_ok());
  EXPECT_FALSE(apps::kernel_named(apps::climate_pipeline(), "nope")
                   .is_ok());
}

}  // namespace
}  // namespace griddles::workflow
