// Tests for src/obs: registry counters under contention, histogram
// bucket edges, the exact JSON export, the File Multiplexer's per-file
// `file` spans, and an end-to-end check that workflow runs feed the
// expected per-mode FM counters and file spans.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/paper_apps.h"
#include "src/common/tempfile.h"
#include "src/core/multiplexer.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/workflow/runner.h"
#include "tests/test_scaling.h"

namespace griddles {
namespace {

TEST(CounterTest, ExactUnderContention) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("test.contended");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(CounterTest, HotPathIsLockFree) {
  // The acceptance bar for instrumenting the FM/Grid Buffer hot paths:
  // an increment must be a branch plus a relaxed atomic, never a mutex.
  // The registry lock is only taken at registration time.
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "obs::Counter increments must be lock-free");
  static_assert(std::atomic<std::int64_t>::is_always_lock_free,
                "obs::Gauge updates must be lock-free");
}

TEST(GaugeTest, MovesBothWays) {
  obs::MetricsRegistry registry;
  obs::Gauge& gauge = registry.gauge("test.level");
  gauge.add(10);
  gauge.sub(3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.set(-2);
  EXPECT_EQ(gauge.value(), -2);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram histogram({1.0, 10.0, 100.0});
  histogram.observe(0.5);     // <= 1.0       -> bucket 0
  histogram.observe(1.0);     // == bound     -> bucket 0 (inclusive)
  histogram.observe(1.0001);  // just above   -> bucket 1
  histogram.observe(10.0);    // == bound     -> bucket 1
  histogram.observe(100.0);   // == last      -> bucket 2
  histogram.observe(100.5);   // above all    -> overflow
  EXPECT_EQ(histogram.bucket_count(0), 2u);
  EXPECT_EQ(histogram.bucket_count(1), 2u);
  EXPECT_EQ(histogram.bucket_count(2), 1u);
  EXPECT_EQ(histogram.bucket_count(3), 1u);  // overflow
  EXPECT_EQ(histogram.count(), 6u);
  EXPECT_NEAR(histogram.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 100.5,
              1e-9);
}

TEST(HistogramTest, SumExactUnderContention) {
  obs::Histogram histogram({1.0});
  constexpr int kThreads = 8;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kObservations; ++i) histogram.observe(0.25);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kObservations);
  // 0.25 is exactly representable, so the CAS-loop sum has no rounding.
  EXPECT_EQ(histogram.sum(), 0.25 * kThreads * kObservations);
}

TEST(HistogramTest, ExponentialBounds) {
  const std::vector<double> bounds = obs::exponential_bounds(0.001, 10.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_NEAR(bounds[0], 0.001, 1e-12);
  EXPECT_NEAR(bounds[1], 0.01, 1e-12);
  EXPECT_NEAR(bounds[2], 0.1, 1e-12);
  EXPECT_NEAR(bounds[3], 1.0, 1e-12);
}

TEST(RegistryTest, SameNameReturnsSameHandle) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("dup");
  obs::Counter& b = registry.counter("dup");
  EXPECT_EQ(&a, &b);
  // First histogram registration fixes the bounds.
  obs::Histogram& h1 = registry.histogram("h", {1.0, 2.0});
  obs::Histogram& h2 = registry.histogram("h", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(RegistryTest, ConcurrentRegistrationAndIncrement) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kNames = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kNames; ++i) {
        registry.counter("race." + std::to_string(i)).add();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kNames; ++i) {
    EXPECT_EQ(registry.counter("race." + std::to_string(i)).value(),
              static_cast<std::uint64_t>(kThreads));
  }
}

TEST(ExportTest, JsonIsExact) {
  obs::MetricsRegistry registry;
  registry.counter("fm.open.local").add(42);
  registry.counter("weird \"name\"\n").add(7);
  registry.gauge("gridbuffer.bytes.buffered").set(-12);
  obs::Histogram& histogram =
      registry.histogram("fm.open.latency_s", {0.001, 0.1});
  histogram.observe(0.0005);
  histogram.observe(0.05);
  histogram.observe(5.0);

  const std::string json = obs::to_json(obs::snapshot(registry));
  EXPECT_EQ(json,
            "{\"counters\":{\"fm.open.local\":42,"
            "\"weird \\\"name\\\"\\n\":7},"
            "\"gauges\":{\"gridbuffer.bytes.buffered\":-12},"
            "\"histograms\":{\"fm.open.latency_s\":{"
            "\"bounds\":[0.001,0.1],\"counts\":[1,1,1],"
            "\"count\":3,\"sum\":5.0505}}}");
}

/// The `file` spans among drained records.
std::vector<obs::SpanRecord> file_spans(std::vector<obs::SpanRecord> spans) {
  std::erase_if(spans, [](const obs::SpanRecord& span) {
    return span.kind != obs::SpanKind::kFile;
  });
  return spans;
}

/// A span attribute's value ("" when absent).
std::string attr(const obs::SpanRecord& span, std::string_view key) {
  for (const auto& [name, value] : span.attrs) {
    if (name == key) return value;
  }
  return "";
}

std::uint64_t count_attr(const obs::SpanRecord& span, std::string_view key) {
  return std::stoull(attr(span, key));
}

/// Opens one local file through a File Multiplexer, writes three chunks,
/// seeks back once, reads twice and closes; returns the spans drained
/// afterwards.
std::vector<obs::SpanRecord> run_local_file_io() {
  auto scratch = TempDir::create("obs-file-span");
  EXPECT_TRUE(scratch.is_ok());
  core::FileMultiplexer::Options options;
  options.host = "jagan";
  options.local_root = scratch->path().string();
  core::FileMultiplexer fm(options);
  auto fd = fm.open("OUT.DAT", {.read = true,
                                .write = true,
                                .create = true,
                                .truncate = true});
  EXPECT_TRUE(fd.is_ok()) << fd.status().to_string();
  if (!fd.is_ok()) return {};
  const Bytes chunk(250, std::byte{7});
  for (const std::size_t n : {100, 250, 150}) {
    EXPECT_TRUE(fm.write(*fd, ByteSpan(chunk.data(), n)).is_ok());
  }
  EXPECT_TRUE(fm.seek(*fd, 0, vfs::Whence::kSet).is_ok());
  Bytes out(200);
  for (int i = 0; i < 2; ++i) {
    auto got = fm.read(*fd, MutableByteSpan(out.data(), out.size()));
    EXPECT_TRUE(got.is_ok() && *got == out.size());
  }
  EXPECT_TRUE(fm.close(*fd).is_ok());
  return obs::SpanCollector::global().drain();
}

TEST(FileSpanTest, DisabledCollectorRecordsNoFileSpan) {
  obs::SpanCollector& collector = obs::SpanCollector::global();
  collector.enable(false);
  (void)collector.drain();
  EXPECT_TRUE(file_spans(run_local_file_io()).empty());
}

TEST(FileSpanTest, LocalFileCountsAreExact) {
  obs::SpanCollector& collector = obs::SpanCollector::global();
  collector.enable(true);
  (void)collector.drain();
  const std::vector<obs::SpanRecord> spans = file_spans(run_local_file_io());
  collector.enable(false);

  ASSERT_EQ(spans.size(), 1u);
  const obs::SpanRecord& span = spans[0];
  EXPECT_NE(span.name.find("file:/"), std::string::npos) << span.name;
  EXPECT_NE(span.name.find("/OUT.DAT"), std::string::npos) << span.name;
  EXPECT_EQ(attr(span, "host"), "jagan");
  EXPECT_EQ(attr(span, "mode"), "local");
  EXPECT_EQ(count_attr(span, "writes"), 3u);
  EXPECT_EQ(count_attr(span, "bytes_written"), 500u);
  EXPECT_EQ(count_attr(span, "seeks"), 1u);
  EXPECT_EQ(count_attr(span, "reads"), 2u);
  EXPECT_EQ(count_attr(span, "bytes_read"), 400u);
  EXPECT_EQ(count_attr(span, "faults"), 0u);
  EXPECT_GE(std::stod(attr(span, "read_wait_s")), 0.0);
  EXPECT_GE(span.wall_end_s, span.wall_start_s);

  // The --trace view is this record's Chrome event: every count is there.
  const std::string line = obs::to_chrome_event(span);
  EXPECT_NE(line.find("\"cat\":\"file\""), std::string::npos) << line;
  for (const char* key : {"host", "mode", "bytes_read", "bytes_written",
                          "reads", "writes", "seeks", "read_wait_s",
                          "faults"}) {
    EXPECT_NE(line.find(obs::json_quote(key) + ":"), std::string::npos)
        << key << " missing from " << line;
  }
}

// End-to-end: the same pipeline run with staged files and with Grid
// Buffers must land its opens in the matching per-mode counters, and the
// span collector must see one `file` span per descriptor.
class WorkflowTelemetryTest : public ::testing::Test {
 protected:
  struct ModeDeltas {
    std::uint64_t local = 0;
    std::uint64_t buffer = 0;
    std::vector<obs::SpanRecord> spans;  // the run's `file` spans
  };

  static ModeDeltas run_pipeline(workflow::CouplingMode mode) {
    auto& registry = obs::MetricsRegistry::global();
    const std::uint64_t local_before =
        registry.counter("fm.open.local").value();
    const std::uint64_t buffer_before =
        registry.counter("fm.open.buffer").value();
    obs::SpanCollector& collector = obs::SpanCollector::global();
    collector.enable(true);
    (void)collector.drain();

    auto scratch = TempDir::create("obs-telemetry");
    EXPECT_TRUE(scratch.is_ok());
    testbed::TestbedRuntime testbed(
        test_support::kClockScale / 4000.0, scratch->path().string(),
        256.0);
    collector.set_model_clock(&testbed.clock());
    workflow::WorkflowRunner runner(testbed);
    auto spec = workflow::WorkflowSpec::from_pipeline(
        "obs-telemetry", apps::climate_pipeline(256.0), {"jagan"});
    EXPECT_TRUE(spec.is_ok());
    workflow::WorkflowRunner::Options options;
    options.mode = mode;
    auto report = runner.run(*spec, options);
    collector.set_model_clock(nullptr);
    EXPECT_TRUE(report.is_ok()) << report.status().to_string();

    ModeDeltas deltas;
    deltas.local = registry.counter("fm.open.local").value() - local_before;
    deltas.buffer =
        registry.counter("fm.open.buffer").value() - buffer_before;
    deltas.spans = file_spans(collector.drain());
    collector.enable(false);
    return deltas;
  }

  static std::uint64_t spans_in_mode(
      const std::vector<obs::SpanRecord>& spans, const std::string& mode) {
    std::uint64_t n = 0;
    for (const obs::SpanRecord& span : spans) {
      n += attr(span, "mode") == mode ? 1 : 0;
    }
    return n;
  }
};

TEST_F(WorkflowTelemetryTest, StagedRunUsesLocalFiles) {
  const ModeDeltas deltas =
      run_pipeline(workflow::CouplingMode::kSequentialFiles);
  // Single-machine sequential run: every open is plain local IO.
  EXPECT_GT(deltas.local, 0u);
  EXPECT_EQ(deltas.buffer, 0u);
  ASSERT_FALSE(deltas.spans.empty());
  EXPECT_EQ(spans_in_mode(deltas.spans, "local"), deltas.spans.size());
  EXPECT_EQ(spans_in_mode(deltas.spans, "buffer"), 0u);
  for (const obs::SpanRecord& span : deltas.spans) {
    EXPECT_EQ(attr(span, "host"), "jagan");
    EXPECT_GE(span.model_end_s, span.model_start_s);
    EXPECT_GE(span.wall_end_s, span.wall_start_s);
    EXPECT_GT(count_attr(span, "bytes_read") +
                  count_attr(span, "bytes_written"),
              0u)
        << span.name;
  }
}

TEST_F(WorkflowTelemetryTest, BufferRunOpensGridBufferStreams) {
  const ModeDeltas deltas = run_pipeline(workflow::CouplingMode::kGridBuffers);
  // Inter-stage files become buffer channels; stage outputs to nowhere
  // (and rereads) may stay local, so only the buffer count is exact.
  EXPECT_GT(deltas.buffer, 0u);
  ASSERT_FALSE(deltas.spans.empty());
  const std::uint64_t buffer_spans = spans_in_mode(deltas.spans, "buffer");
  EXPECT_EQ(buffer_spans, deltas.buffer);
  bool saw_buffer_writer = false;
  for (const obs::SpanRecord& span : deltas.spans) {
    if (attr(span, "mode") == "buffer" &&
        count_attr(span, "bytes_written") > 0) {
      saw_buffer_writer = true;
    }
  }
  EXPECT_TRUE(saw_buffer_writer);
}

}  // namespace
}  // namespace griddles
