// Tests for the control-plane resilience layer (DESIGN.md
// "Control-plane resilience"): replicated GNS with circuit breakers and
// mapping leases, NWS outage degradation with static fallback, and the
// crash-restartable workflow checkpoint journal.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "src/common/strings.h"
#include "src/common/tempfile.h"
#include "src/fault/plan.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/net/inproc.h"
#include "src/nws/monitor.h"
#include "src/obs/metrics.h"
#include "src/testbed/testbed.h"
#include "src/vfs/local_client.h"
#include "src/workflow/checkpoint.h"
#include "src/workflow/runner.h"
#include "tests/test_scaling.h"

namespace griddles {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

std::int64_t gauge_value(const char* name) {
  return obs::MetricsRegistry::global().gauge(name).value();
}

/// Arms a plan for the test body and disarms on scope exit.
struct ArmedPlan {
  std::shared_ptr<fault::Plan> plan;

  explicit ArmedPlan(const std::string& spec,
                     const Clock* clock = nullptr) {
    auto parsed = fault::Plan::parse(spec);
    EXPECT_TRUE(parsed.is_ok()) << parsed.status();
    if (parsed.is_ok()) {
      plan = *parsed;
      fault::arm(plan, clock);
    }
  }
  ~ArmedPlan() { fault::disarm(); }
};

// ---------------------------------------------------------------------
// Replicated GNS: failover, breakers, leases.

class ReplicatedGnsTest : public ::testing::Test {
 protected:
  ReplicatedGnsTest()
      : network_(clock_),
        server_transport_(network_.transport("dione")),
        client_transport_(network_.transport("jagan")),
        cluster_(*server_transport_, cluster_options()) {
    obs::MetricsRegistry::global().reset();
    for (int i = 0; i < 2; ++i) {
      const std::string name = strings::cat("gns-", i);
      EXPECT_TRUE(
          cluster_.add_replica(name, net::inproc_endpoint("dione", name))
              .is_ok());
    }
    EXPECT_TRUE(cluster_.start().is_ok());
    gns::MappingRule rule;
    rule.host_pattern = "jagan";
    rule.path_pattern = "*";
    rule.mapping.mode = gns::IoMode::kLocal;
    EXPECT_TRUE(cluster_.add_rule(rule).is_ok());
  }
  ~ReplicatedGnsTest() override {
    fault::disarm();
    cluster_.stop();
  }

  /// Every replica owns every shard; anti-entropy runs on manual ticks
  /// only, so no background sync consults the armed fault plans.
  static gns::GnsCluster::Options cluster_options() {
    gns::GnsCluster::Options options;
    options.replication = 0;
    options.ae_interval = std::chrono::milliseconds(0);
    return options;
  }

  std::unique_ptr<gns::ReplicatedNameService> make_service(
      gns::ReplicatedNameService::Options options) {
    auto service = std::make_unique<gns::ReplicatedNameService>(
        *client_transport_, options);
    for (const gns::ReplicaAddress& replica : cluster_.endpoints()) {
      service->add_replica(replica.name, replica.endpoint);
    }
    return service;
  }
  std::unique_ptr<gns::ReplicatedNameService> make_service() {
    return make_service(gns::ReplicatedNameService::Options{});
  }

  /// The `n`-th path whose shard's preference list starts with gns-0,
  /// so a lookup of it tries gns-0 first. Each call site uses its own
  /// `n`: a path looked up once is served from the client cache for
  /// the fresh window and would not reach the replicas again.
  std::string gns0_path(int n) const {
    const gns::ShardMap map = cluster_.map();
    for (int i = 0;; ++i) {
      std::string path = strings::cat("/work/f", i, ".dat");
      if (map.owners(map.shard_of("jagan", path)).front() == "gns-0" &&
          n-- == 0) {
        return path;
      }
    }
  }

  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> server_transport_;
  std::unique_ptr<net::Transport> client_transport_;
  gns::GnsCluster cluster_;
};

TEST_F(ReplicatedGnsTest, LookupFailsOverWhenFirstReplicaDies) {
  ArmedPlan armed("seed=1;die@gns:gns-0");
  auto service = make_service();

  auto result = service->lookup("jagan", gns0_path(0));
  ASSERT_TRUE(result.is_ok()) << result.status();
  ASSERT_TRUE(result->has_value());
  EXPECT_EQ((*result)->mode, gns::IoMode::kLocal);
  EXPECT_GE(counter_value("gns.failover"), 1u);
  EXPECT_GE(counter_value("fault.injected.peer_death"), 1u);

  // Enough consecutive failures open the dead replica's breaker; the
  // healthy one stays closed and keeps answering.
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(service->lookup("jagan", gns0_path(i)).is_ok());
  }
  EXPECT_EQ(service->breaker_state("gns-0"), gns::BreakerState::kOpen);
  EXPECT_EQ(service->breaker_state("gns-1"), gns::BreakerState::kClosed);
  EXPECT_EQ(counter_value("gns.breaker.opened"), 1u);
  EXPECT_EQ(gauge_value("gns.breaker.open"), 1);
}

TEST_F(ReplicatedGnsTest, WarmLeaseSurvivesTotalOutageColdLookupFails) {
  auto service = make_service();
  // Warm the cache while the service is healthy.
  auto warm = service->lookup("jagan", "/work/warm.dat");
  ASSERT_TRUE(warm.is_ok());
  ASSERT_TRUE(warm->has_value());
  EXPECT_EQ(service->cache_size(), 1u);

  // Past the fresh window the lookup must reach the replicas, which are
  // all down: the cached answer stands in as a stale-if-error lease.
  std::this_thread::sleep_for(gns::ReplicatedNameService::kFreshFor +
                              std::chrono::milliseconds(50));
  ArmedPlan armed("seed=1;die@gns:*");
  auto leased = service->lookup("jagan", "/work/warm.dat");
  ASSERT_TRUE(leased.is_ok()) << leased.status();
  ASSERT_TRUE(leased->has_value());
  EXPECT_EQ((*leased)->mode, gns::IoMode::kLocal);
  EXPECT_GE(counter_value("gns.lease.served"), 1u);

  // A path never resolved before has no lease: typed unavailable, fast.
  auto cold = service->lookup("jagan", "/work/cold.dat");
  ASSERT_FALSE(cold.is_ok());
  EXPECT_EQ(cold.status().code(), ErrorCode::kUnavailable);
}

TEST_F(ReplicatedGnsTest, OpenBreakerRecoversThroughHalfOpenProbe) {
  gns::ReplicatedNameService::Options options;
  options.failure_threshold = 1;
  options.cooldown = std::chrono::milliseconds(20);
  auto service = make_service(options);
  {
    ArmedPlan armed("seed=1;die@gns:gns-0");
    ASSERT_TRUE(service->lookup("jagan", gns0_path(0)).is_ok());
    EXPECT_EQ(service->breaker_state("gns-0"), gns::BreakerState::kOpen);
  }
  // Replica is healthy again; after the cooldown one probe lookup is
  // admitted and a success closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(service->lookup("jagan", gns0_path(1)).is_ok());
  EXPECT_EQ(service->breaker_state("gns-0"), gns::BreakerState::kClosed);
  EXPECT_EQ(counter_value("gns.breaker.recovered"), 1u);
  EXPECT_EQ(gauge_value("gns.breaker.open"), 0);
}

TEST_F(ReplicatedGnsTest, WriteThroughInvalidationBeatsClientCacheTtl) {
  // The fresh window outlives the steps below: without write-through
  // invalidation every remap would stay invisible until the cached
  // answer went stale (the stale-read window this closes).
  auto service = make_service();

  auto before = service->lookup("jagan", "/work/w.dat");
  ASSERT_TRUE(before.is_ok()) << before.status();
  ASSERT_TRUE(before->has_value());
  EXPECT_EQ((*before)->mode, gns::IoMode::kLocal);

  // Remap the file while the old mapping is cached.
  gns::MappingRule remap;
  remap.host_pattern = "jagan";
  remap.path_pattern = "/work/w.dat";
  remap.mapping.mode = gns::IoMode::kGridBuffer;
  ASSERT_TRUE(service->add_rule(remap).is_ok());

  auto after = service->lookup("jagan", "/work/w.dat");
  ASSERT_TRUE(after.is_ok()) << after.status();
  ASSERT_TRUE(after->has_value());
  EXPECT_EQ((*after)->mode, gns::IoMode::kGridBuffer);

  // Removal is equally immediate: back to the glob default.
  ASSERT_TRUE(service->remove_rule("jagan", "/work/w.dat").is_ok());
  auto removed = service->lookup("jagan", "/work/w.dat");
  ASSERT_TRUE(removed.is_ok()) << removed.status();
  ASSERT_TRUE(removed->has_value());
  EXPECT_EQ((*removed)->mode, gns::IoMode::kLocal);
}

TEST_F(ReplicatedGnsTest, HalfOpenAdmitsExactlyOneProbe) {
  gns::ReplicatedNameService::Options options;
  options.failure_threshold = 1;
  options.cooldown = std::chrono::milliseconds(20);
  auto service = make_service(options);
  {
    ArmedPlan armed("seed=1;die@gns:gns-0");
    ASSERT_TRUE(service->lookup("jagan", gns0_path(0)).is_ok());
    EXPECT_EQ(service->breaker_state("gns-0"), gns::BreakerState::kOpen);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  // Many concurrent lookups of a path not yet cached race for the
  // half-open slot. The open->half-open transition is a single CAS, so
  // exactly one caller wins the probe; the losers observe kHalfOpen and
  // fail over to gns-1 instead of piling onto the recovering replica.
  const std::string path = gns0_path(1);
  const std::uint64_t probes_before = counter_value("gns.breaker.probe");
  std::vector<std::thread> lookups;
  std::atomic<int> failures{0};
  for (int i = 0; i < 8; ++i) {
    lookups.emplace_back([&service, &failures, &path] {
      auto result = service->lookup("jagan", path);
      if (!result.is_ok() || !result->has_value()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : lookups) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(counter_value("gns.breaker.probe") - probes_before, 1u);
  EXPECT_EQ(service->breaker_state("gns-0"), gns::BreakerState::kClosed);
  EXPECT_EQ(counter_value("gns.breaker.recovered"), 1u);
}

// ---------------------------------------------------------------------
// NWS degradation: outage detection, confidence decay, static fallback.

TEST(NwsDegradationTest, SensorOutageFallsBackToStaticModel) {
  obs::MetricsRegistry::global().reset();
  ScaledClock clock(0.001 * test_support::kClockScale);
  net::InProcNetwork network(clock);
  auto responder_transport = network.transport("freak");
  nws::Responder responder(*responder_transport,
                           net::inproc_endpoint("freak", "nws"));
  ASSERT_TRUE(responder.start().is_ok());

  auto monitor_transport = network.transport("jagan");
  nws::Monitor::Options options;
  options.echo_count = 1;
  options.bulk_bytes = 4096;
  options.outage_after_failures = 2;
  nws::Monitor monitor(*monitor_transport, clock, options);
  monitor.add_target("freak", responder.endpoint());
  ASSERT_TRUE(monitor.probe_once("freak").is_ok());
  ASSERT_TRUE(monitor.estimate("freak").is_ok());

  // `die@nws` is a permanent sensor outage: every probe round fails.
  ArmedPlan armed("seed=1;die@nws:freak", &clock);
  EXPECT_FALSE(monitor.probe_once("freak").is_ok());
  EXPECT_FALSE(monitor.probe_once("freak").is_ok());
  EXPECT_EQ(counter_value("nws.sensor.outage"), 1u);

  // The monitor withholds its (now untrustworthy) forecast...
  auto direct = monitor.estimate("freak");
  ASSERT_FALSE(direct.is_ok());
  EXPECT_EQ(direct.status().code(), ErrorCode::kUnavailable);

  // ...and the fallback chain degrades to the static link model.
  nws::StaticLinkEstimator static_model;
  static_model.set("freak", {0.05, 2e6});
  nws::FallbackLinkEstimator chain(monitor, static_model);
  auto estimate = chain.estimate("freak");
  ASSERT_TRUE(estimate.is_ok()) << estimate.status();
  EXPECT_DOUBLE_EQ(estimate->latency_seconds, 0.05);
  EXPECT_DOUBLE_EQ(estimate->bandwidth_bytes_per_sec, 2e6);
  EXPECT_GE(counter_value("nws.fallback.static"), 1u);
  responder.stop();
}

TEST(NwsDegradationTest, StaleEstimateDecaysToFloorThenWithheld) {
  ScaledClock clock(0.001 * test_support::kClockScale);
  net::InProcNetwork network(clock);
  auto responder_transport = network.transport("freak");
  nws::Responder responder(*responder_transport,
                           net::inproc_endpoint("freak", "nws"));
  ASSERT_TRUE(responder.start().is_ok());

  auto monitor_transport = network.transport("jagan");
  nws::Monitor::Options options;
  options.echo_count = 1;
  options.bulk_bytes = 4096;
  options.stale_after = std::chrono::milliseconds(50);
  nws::Monitor monitor(*monitor_transport, clock, options);
  monitor.add_target("freak", responder.endpoint());
  ASSERT_TRUE(monitor.probe_once("freak").is_ok());

  auto fresh = monitor.estimate("freak");
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_DOUBLE_EQ(fresh->confidence, 1.0);

  // Past stale_after the confidence decays toward the floor but the
  // estimate is still served (advisory degradation)...
  clock.sleep_for(std::chrono::milliseconds(120));
  auto stale = monitor.estimate("freak");
  ASSERT_TRUE(stale.is_ok());
  EXPECT_LT(stale->confidence, 1.0);
  EXPECT_GT(stale->confidence, options.confidence_floor);

  // ...until it reaches the floor, after which it is withheld.
  clock.sleep_for(std::chrono::seconds(2));
  auto gone = monitor.estimate("freak");
  ASSERT_FALSE(gone.is_ok());
  EXPECT_EQ(gone.status().code(), ErrorCode::kUnavailable);
  responder.stop();
}

TEST(NwsDegradationTest, TestbedStaticModelServesPaperLinks) {
  testbed::StaticModelEstimator estimator("brecca");
  auto estimate = estimator.estimate("dione");
  ASSERT_TRUE(estimate.is_ok()) << estimate.status();
  EXPECT_GT(estimate->bandwidth_bytes_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(estimate->confidence, 0.5);
  EXPECT_FALSE(estimator.estimate("no-such-machine").is_ok());
}

// ---------------------------------------------------------------------
// Checkpoint journal.

TEST(CheckpointLogTest, HashFileMatchesInMemoryFnv) {
  auto dir = TempDir::create("ckpt-hash");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = (dir->path() / "blob.bin").string();
  Bytes data;
  for (int i = 0; i < 70000; ++i) data.push_back(std::byte(i % 251));
  ASSERT_TRUE(vfs::write_file(path, data).is_ok());
  auto hash = workflow::hash_file(path);
  ASSERT_TRUE(hash.is_ok());
  EXPECT_EQ(*hash, fnv1a(data));
  EXPECT_FALSE(workflow::hash_file(path + ".missing").is_ok());
}

TEST(CheckpointLogTest, TornTailIsTruncatedAndJournalStaysAppendable) {
  obs::MetricsRegistry::global().reset();
  auto dir = TempDir::create("ckpt-torn");
  ASSERT_TRUE(dir.is_ok());
  const std::string path = (dir->path() / "wf.ck").string();
  {
    auto log = workflow::CheckpointLog::open(path);
    ASSERT_TRUE(log.is_ok()) << log.status();
    workflow::StageRecord stage;
    stage.name = "gen";
    stage.machine = "brecca";
    stage.finished_s = 12.5;
    stage.outputs.emplace_back("mid.dat", 0xabcdu);
    ASSERT_TRUE((*log)->append_stage(stage).is_ok());
    workflow::CopyRecord copy{"mid.dat", "brecca", "dione", 14.0, 1.5,
                              0x1234u};
    ASSERT_TRUE((*log)->append_copy(copy).is_ok());
  }
  const auto intact_size = std::filesystem::file_size(path);
  {
    // A crash mid-append leaves a torn frame at the tail.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "GLCK torn half-frame";
  }
  ASSERT_GT(std::filesystem::file_size(path), intact_size);
  {
    auto log = workflow::CheckpointLog::open(path);
    ASSERT_TRUE(log.is_ok()) << log.status();
    EXPECT_EQ((*log)->replayed(), 2u);
    EXPECT_EQ(counter_value("checkpoint.records.replayed"), 2u);
    // The torn tail was truncated away...
    EXPECT_EQ(std::filesystem::file_size(path), intact_size);
    const workflow::StageRecord* stage = (*log)->stage("gen");
    ASSERT_NE(stage, nullptr);
    EXPECT_EQ(stage->machine, "brecca");
    ASSERT_EQ(stage->outputs.size(), 1u);
    EXPECT_EQ(stage->outputs[0].second, 0xabcdu);
    const workflow::CopyRecord* copy =
        (*log)->copy("mid.dat", "brecca", "dione");
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->dest_hash, 0x1234u);
    // ...and clean appends continue from the last good record.
    workflow::StageRecord next;
    next.name = "filter";
    next.machine = "dione";
    ASSERT_TRUE((*log)->append_stage(next).is_ok());
  }
  auto log = workflow::CheckpointLog::open(path);
  ASSERT_TRUE(log.is_ok());
  EXPECT_EQ((*log)->replayed(), 3u);
  EXPECT_NE((*log)->stage("filter"), nullptr);
}

// ---------------------------------------------------------------------
// Crash-restartable workflow runs.

class CheckpointWorkflowTest : public ::testing::Test {
 protected:
  CheckpointWorkflowTest() { obs::MetricsRegistry::global().reset(); }
  ~CheckpointWorkflowTest() override { fault::disarm(); }

  static constexpr std::uint64_t kBytes = 64 * 1024;

  static apps::AppKernel make_kernel(
      const std::string& name, double work,
      std::vector<apps::StreamSpec> inputs,
      std::vector<apps::StreamSpec> outputs) {
    apps::AppKernel kernel;
    kernel.name = name;
    kernel.work_units = work;
    kernel.timesteps = 4;
    kernel.inputs = std::move(inputs);
    kernel.outputs = std::move(outputs);
    return kernel;
  }

  static std::vector<apps::AppKernel> pipeline() {
    return {
        make_kernel("gen", 6, {}, {{"mid.dat", kBytes}}),
        make_kernel("filter", 2, {{"mid.dat", kBytes}},
                    {{"out.dat", kBytes / 2}}),
        make_kernel("sink", 4, {{"out.dat", kBytes / 2}},
                    {{"final.dat", 1000}}),
    };
  }

  /// One sequential-files run over {brecca, dione, freak} with the
  /// given stable scratch dir, checkpoint journal, and fault plan.
  Result<workflow::WorkflowReport> run(const std::string& scratch,
                                       const std::string& checkpoint,
                                       const std::string& fault_spec) {
    testbed::TestbedRuntime testbed(0.0002, scratch, /*byte_scale=*/1.0);
    std::shared_ptr<fault::Plan> plan;
    if (!fault_spec.empty()) {
      auto parsed = fault::Plan::parse(fault_spec);
      EXPECT_TRUE(parsed.is_ok()) << parsed.status();
      plan = *parsed;
      fault::arm(plan, &testbed.clock());
    }
    workflow::WorkflowRunner runner(testbed);
    auto spec = workflow::WorkflowSpec::from_pipeline(
        "ck", pipeline(), {"brecca", "dione", "freak"});
    EXPECT_TRUE(spec.is_ok());
    workflow::WorkflowRunner::Options options;
    options.mode = workflow::CouplingMode::kSequentialFiles;
    options.checkpoint_path = checkpoint;
    options.gns_replicas = 2;
    auto report = runner.run(*spec, options);
    fault::disarm();
    return report;
  }

  static std::uint64_t final_hash(const std::string& scratch) {
    auto bytes = vfs::read_file(
        (std::filesystem::path(scratch) / "freak" / "final.dat").string());
    EXPECT_TRUE(bytes.is_ok()) << bytes.status();
    return bytes.is_ok() ? fnv1a(*bytes) : 0;
  }
};

TEST_F(CheckpointWorkflowTest, CrashMidCopyResumesWithIdenticalArtifact) {
  auto clean_dir = TempDir::create("ckpt-clean");
  ASSERT_TRUE(clean_dir.is_ok());
  auto clean = run(clean_dir->path().string(),
                   (clean_dir->path() / "wf.ck").string(), "");
  ASSERT_TRUE(clean.is_ok()) << clean.status();
  const std::uint64_t clean_hash = final_hash(clean_dir->path().string());

  // A permanently dead host kills the dione->freak staging copy: the
  // coordinator aborts with two stages and one copy already journaled.
  auto crash_dir = TempDir::create("ckpt-crash");
  ASSERT_TRUE(crash_dir.is_ok());
  const std::string scratch = crash_dir->path().string();
  const std::string journal = (crash_dir->path() / "wf.ck").string();
  auto crashed = run(scratch, journal, "seed=3;crash@host:*>dione");
  ASSERT_FALSE(crashed.is_ok());
  EXPECT_EQ(crashed.status().code(), ErrorCode::kUnavailable);

  // The resume re-runs ONLY the incomplete work: the failed copy and
  // the never-started sink stage.
  obs::MetricsRegistry::global().reset();
  auto resumed = run(scratch, journal, "");
  ASSERT_TRUE(resumed.is_ok()) << resumed.status();
  EXPECT_EQ(counter_value("checkpoint.stage.skipped"), 2u);
  EXPECT_EQ(counter_value("checkpoint.copy.skipped"), 1u);
  EXPECT_EQ(counter_value("stage.reruns"), 1u);
  EXPECT_EQ(resumed->tasks.size(), 3u);
  EXPECT_EQ(final_hash(scratch), clean_hash);
}

TEST_F(CheckpointWorkflowTest, CheckpointRejectedForStreamingCouplings) {
  auto dir = TempDir::create("ckpt-mode");
  ASSERT_TRUE(dir.is_ok());
  testbed::TestbedRuntime testbed(0.0002, dir->path().string(), 1.0);
  workflow::WorkflowRunner runner(testbed);
  auto spec = workflow::WorkflowSpec::from_pipeline(
      "ck", pipeline(), {"jagan", "jagan", "jagan"});
  ASSERT_TRUE(spec.is_ok());
  workflow::WorkflowRunner::Options options;
  options.mode = workflow::CouplingMode::kGridBuffers;
  options.checkpoint_path = (dir->path() / "wf.ck").string();
  auto report = runner.run(*spec, options);
  ASSERT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace griddles
