// Tests for the synthetic legacy-app framework and the paper kernels.
#include <gtest/gtest.h>

#include "src/apps/paper_apps.h"
#include "src/common/tempfile.h"
#include "src/net/inproc.h"

namespace griddles::apps {
namespace {

TEST(StreamContentTest, DeterministicAndPathKeyed) {
  EXPECT_EQ(stream_byte("a.dat", 0), stream_byte("a.dat", 0));
  EXPECT_EQ(stream_byte("a.dat", 12345), stream_byte("a.dat", 12345));
  // Different paths give different streams (overwhelmingly likely to
  // differ somewhere in a prefix).
  bool differs = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (stream_byte("a.dat", i) != stream_byte("b.dat", i)) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(StreamContentTest, FillMatchesByteAtEveryOffset) {
  Bytes chunk(97);
  fill_stream("x", 1003, {chunk.data(), chunk.size()});
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(chunk[i]),
              stream_byte("x", 1003 + i));
  }
}

TEST(StreamContentTest, UnalignedFillsAgree) {
  // Property: filling [0,100) in one go equals filling in odd pieces.
  Bytes whole(100);
  fill_stream("frag", 0, {whole.data(), whole.size()});
  Bytes pieces(100);
  std::size_t offset = 0;
  for (const std::size_t piece : {3u, 17u, 1u, 42u, 37u}) {
    fill_stream("frag", offset, {pieces.data() + offset, piece});
    offset += piece;
  }
  EXPECT_EQ(whole, pieces);
}

class RunAppTest : public ::testing::Test {
 protected:
  RunAppTest()
      : dir_(*TempDir::create("apps-test")),
        testbed_(0.001, dir_.path().string()) {}

  TempDir dir_;
  testbed::TestbedRuntime testbed_;
};

TEST_F(RunAppTest, ProducesAndConsumesDeterministicContent) {
  auto machine = testbed_.machine("brecca");
  ASSERT_TRUE(machine.is_ok());
  auto dir = testbed_.machine_dir("brecca");
  ASSERT_TRUE(dir.is_ok());
  auto transport = testbed_.transport("brecca");

  core::FileMultiplexer::Options options;
  options.host = "brecca";
  options.local_root = *dir;
  core::FileMultiplexer fm(options);

  AppKernel writer;
  writer.name = "writer";
  writer.work_units = 0.5;
  writer.timesteps = 4;
  writer.outputs = {{"data.bin", 100000}};
  auto report = run_app(writer, fm, **machine, testbed_.clock());
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->bytes_written, 100000u);
  EXPECT_GT(report->elapsed_seconds(), 0.0);

  AppKernel reader;
  reader.name = "reader";
  reader.work_units = 0.5;
  reader.timesteps = 4;
  reader.inputs = {{"data.bin", 100000}};
  reader.verify_inputs = true;  // checks every byte against the generator
  auto read_report = run_app(reader, fm, **machine, testbed_.clock());
  ASSERT_TRUE(read_report.is_ok()) << read_report.status();
  EXPECT_EQ(read_report->bytes_read, 100000u);
}

TEST_F(RunAppTest, PrematureEofIsAnError) {
  auto machine = testbed_.machine("brecca");
  auto dir = testbed_.machine_dir("brecca");
  core::FileMultiplexer::Options options;
  options.host = "brecca";
  options.local_root = *dir;
  core::FileMultiplexer fm(options);

  AppKernel writer;
  writer.name = "short-writer";
  writer.outputs = {{"short.bin", 1000}};
  ASSERT_TRUE(run_app(writer, fm, **machine, testbed_.clock()).is_ok());

  AppKernel reader;
  reader.name = "greedy-reader";
  reader.inputs = {{"short.bin", 2000}};  // expects more than exists
  auto report = run_app(reader, fm, **machine, testbed_.clock());
  EXPECT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kIoError);
}

TEST_F(RunAppTest, RereadVerifiesFromStart) {
  auto machine = testbed_.machine("brecca");
  auto dir = testbed_.machine_dir("brecca");
  core::FileMultiplexer::Options options;
  options.host = "brecca";
  options.local_root = *dir;
  core::FileMultiplexer fm(options);

  AppKernel writer;
  writer.name = "w";
  writer.outputs = {{"rr.bin", 50000}};
  ASSERT_TRUE(run_app(writer, fm, **machine, testbed_.clock()).is_ok());

  AppKernel reader;
  reader.name = "r";
  reader.inputs = {{"rr.bin", 50000}};
  reader.reread_bytes = 20000;
  reader.verify_inputs = true;
  auto report = run_app(reader, fm, **machine, testbed_.clock());
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->bytes_read, 70000u);  // full pass + re-read
}

TEST(PaperKernelsTest, CalibrationAnchors) {
  const auto climate = climate_pipeline();
  auto ccam = kernel_named(climate, "ccam");
  ASSERT_TRUE(ccam.is_ok());
  EXPECT_DOUBLE_EQ(ccam->work_units, 2800);  // the speed anchor
  auto darlam = kernel_named(climate, "darlam");
  ASSERT_TRUE(darlam.is_ok());
  EXPECT_GT(darlam->reread_bytes, 0u);  // §5.3's cache re-read

  // Calibration identity: C-CAM work / brecca speed == Table 3 time.
  auto brecca = testbed::find_machine("brecca");
  ASSERT_TRUE(brecca.is_ok());
  EXPECT_NEAR(ccam->work_units / brecca->speed, 994.0, 1.0);

  const auto durability = durability_pipeline();
  double total_work = 0;
  for (const auto& kernel : durability) total_work += kernel.work_units;
  auto jagan = testbed::find_machine("jagan");
  // Table 2 exp2 (pure pipelined compute on jagan) is ~89 minutes.
  EXPECT_NEAR(total_work / jagan->speed, 89 * 60 + 17, 400);
}

TEST(PaperKernelsTest, ByteScaleDividesSizes) {
  const auto full = climate_pipeline(1.0);
  const auto scaled = climate_pipeline(64.0);
  EXPECT_EQ(full[0].outputs[0].bytes / 64, scaled[0].outputs[0].bytes);
  // Work and steps unchanged.
  EXPECT_DOUBLE_EQ(full[0].work_units, scaled[0].work_units);
  EXPECT_EQ(full[0].timesteps, scaled[0].timesteps);
}

TEST(TestbedTest, PaperMachinesComplete) {
  EXPECT_EQ(testbed::paper_machines().size(), 7u);
  for (const char* name : {"dione", "jagan", "vpac27", "brecca", "freak",
                           "bouscat", "koume00"}) {
    auto machine = testbed::find_machine(name);
    ASSERT_TRUE(machine.is_ok()) << name;
    EXPECT_GT(machine->speed, 0) << name;
    EXPECT_GT(machine->disk_mb_per_s, 0) << name;
  }
  EXPECT_FALSE(testbed::find_machine("hal9000").is_ok());
}

TEST(TestbedTest, LinksAreSymmetricAndTiered) {
  auto dione = *testbed::find_machine("dione");   // Monash, AU
  auto jagan = *testbed::find_machine("jagan");   // Monash, AU
  auto brecca = *testbed::find_machine("brecca"); // VPAC, AU
  auto bouscat = *testbed::find_machine("bouscat");  // UK

  const auto lan = testbed::link_between(dione, jagan);
  const auto metro = testbed::link_between(dione, brecca);
  const auto wan = testbed::link_between(dione, bouscat);
  EXPECT_LT(lan.latency_s, metro.latency_s);
  EXPECT_LT(metro.latency_s, wan.latency_s);
  EXPECT_GT(lan.mb_per_s, metro.mb_per_s);
  EXPECT_GT(metro.mb_per_s, wan.mb_per_s);
  // Symmetry.
  const auto reverse = testbed::link_between(bouscat, dione);
  EXPECT_DOUBLE_EQ(wan.latency_s, reverse.latency_s);
}

TEST(TestbedTest, ProcessorSharingStretchesUnderLoad) {
  auto dir = TempDir::create("testbed-ps");
  testbed::TestbedRuntime testbed(0.001, dir->path().string());
  auto machine = *testbed.machine("brecca");

  // Solo: ~2 model seconds of work.
  const double work = machine->spec().speed * 2.0;
  const Duration solo_start = testbed.clock().now();
  machine->compute(work);
  const double solo = to_seconds_d(testbed.clock().now() - solo_start);
  EXPECT_NEAR(solo, 2.0, 0.5);

  // Two concurrent computations share the CPU: each takes ~2x as long.
  const Duration pair_start = testbed.clock().now();
  std::thread other([&] { machine->compute(work); });
  machine->compute(work);
  other.join();
  const double pair = to_seconds_d(testbed.clock().now() - pair_start);
  EXPECT_GT(pair, solo * 1.5);
  EXPECT_LT(pair, solo * 3.0);
}

TEST(TestbedTest, DiskSerializes) {
  auto dir = TempDir::create("testbed-disk");
  testbed::TestbedRuntime testbed(0.001, dir->path().string());
  auto machine = *testbed.machine("bouscat");  // 1.6 MB/s
  const Duration start = testbed.clock().now();
  // Transfers well above the sleep-batching threshold (2 model s at this
  // compression): 3 model seconds each.
  std::thread other([&] { machine->disk_transfer(1600 * 3000); });
  machine->disk_transfer(1600 * 3000);
  other.join();
  // Two 3-second transfers through one serial disk: ~6 model seconds.
  const double elapsed = to_seconds_d(testbed.clock().now() - start);
  EXPECT_GT(elapsed, 4.5);
}

TEST(TestbedTest, ByteScaleKeepsModelTimesInvariant) {
  auto dir = TempDir::create("testbed-scale");
  testbed::TestbedRuntime unscaled(0.001, dir->path().string(), 1.0);
  testbed::TestbedRuntime scaled(0.001, dir->path().string(), 64.0);
  auto m1 = *unscaled.machine("dione");
  auto m64 = *scaled.machine("dione");
  // Transferring scaled-down bytes costs the same model time.
  const Duration start1 = unscaled.clock().now();
  m1->disk_transfer(64 * 1000 * 1000);
  const double t1 = to_seconds_d(unscaled.clock().now() - start1);
  const Duration start64 = scaled.clock().now();
  m64->disk_transfer(1000 * 1000);
  const double t64 = to_seconds_d(scaled.clock().now() - start64);
  EXPECT_NEAR(t1, t64, 0.35 * t1);
}

}  // namespace
}  // namespace griddles::apps
