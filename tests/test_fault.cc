// Tests for the fault-injection subsystem: spec parsing, deterministic
// replay (the golden guarantee: same seed + same spec = byte-identical
// injection schedule), retry backoff, and the tolerance matrix — for
// each IO mode a mid-stream fault is injected and the run completes
// with output identical to a fault-free run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "src/apps/paper_apps.h"
#include "src/common/tempfile.h"
#include "src/core/multiplexer.h"
#include "src/fault/plan.h"
#include "src/fault/retry.h"
#include "src/gns/antientropy.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"
#include "src/obs/metrics.h"
#include "src/remote/file_server.h"
#include "src/replica/catalog.h"
#include "src/vfs/local_client.h"
#include "src/workflow/runner.h"

namespace griddles::fault {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Arms a plan for the test body and disarms on scope exit.
struct ArmedPlan {
  std::shared_ptr<Plan> plan;

  explicit ArmedPlan(const std::string& spec,
                     const Clock* clock = nullptr) {
    auto parsed = Plan::parse(spec);
    EXPECT_TRUE(parsed.is_ok()) << parsed.status();
    if (parsed.is_ok()) {
      plan = *parsed;
      arm(plan, clock);
    }
  }
  ~ArmedPlan() { disarm(); }
};

TEST(PlanParseTest, ReadsSeedRulesAndParams) {
  auto plan = Plan::parse(
      "seed=7;drop@rpc:a>b:p=0.5,count=2;die@peer:*ch:after=1000");
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  EXPECT_EQ((*plan)->seed(), 7u);
  ASSERT_EQ((*plan)->rules().size(), 2u);
  const Rule& drop = (*plan)->rules()[0];
  EXPECT_EQ(drop.op, Op::kDrop);
  EXPECT_EQ(drop.site, Site::kRpc);
  EXPECT_EQ(drop.key_glob, "a>b");
  EXPECT_DOUBLE_EQ(drop.probability, 0.5);
  EXPECT_EQ(drop.max_fires, 2u);
  const Rule& death = (*plan)->rules()[1];
  EXPECT_EQ(death.op, Op::kPeerDeath);
  EXPECT_EQ(death.after_bytes, 1000u);
  EXPECT_EQ(death.max_fires, 1u);  // payload mutations default to once
}

TEST(PlanParseTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(Plan::parse("explode@rpc:*").is_ok());
  EXPECT_FALSE(Plan::parse("drop@nowhere:*").is_ok());
  EXPECT_FALSE(Plan::parse("drop@rpc:").is_ok());
  EXPECT_FALSE(Plan::parse("drop@rpc:*:p").is_ok());
  EXPECT_FALSE(Plan::parse("seed=x;drop@rpc:*").is_ok());
}

TEST(PlanTest, SeededScheduleReplaysByteIdentically) {
  const std::string spec =
      "seed=42;drop@rpc:*>b:p=0.3;truncate@copy:*.dat:nth=4";
  auto drive = [&spec] {
    auto plan = *Plan::parse(spec);
    for (int i = 0; i < 100; ++i) {
      (void)plan->consult(Site::kRpc, "a>b");
      (void)plan->consult(Site::kRpc, "c>b");
      (void)plan->consult(Site::kCopy, "x.dat");
    }
    return plan->injection_log();
  };
  const std::vector<std::string> first = drive();
  const std::vector<std::string> second = drive();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // A different seed yields a different probabilistic schedule.
  auto reseeded = *Plan::parse(
      "seed=43;drop@rpc:*>b:p=0.3;truncate@copy:*.dat:nth=4");
  for (int i = 0; i < 100; ++i) {
    (void)reseeded->consult(Site::kRpc, "a>b");
    (void)reseeded->consult(Site::kRpc, "c>b");
    (void)reseeded->consult(Site::kCopy, "x.dat");
  }
  EXPECT_NE(first, reseeded->injection_log());
}

TEST(PlanTest, NthFiresExactlyOnce) {
  auto plan = *Plan::parse("drop@rpc:k:nth=3,count=1");
  int fails = 0;
  for (int i = 0; i < 10; ++i) {
    if (plan->consult(Site::kRpc, "k").action == Decision::Action::kFail) {
      ++fails;
    }
  }
  EXPECT_EQ(fails, 1);
  EXPECT_EQ(plan->injection_count(), 1u);
}

TEST(PlanParseTest, CorruptAcceptsByteRange) {
  auto plan = Plan::parse("corrupt@copy:*mid.dat:offset=4096,len=16");
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  const Rule& rule = (*plan)->rules()[0];
  EXPECT_EQ(rule.corrupt_offset, 4096u);
  EXPECT_EQ(rule.corrupt_len, 16u);
  EXPECT_FALSE(Plan::parse("corrupt@copy:*:len=0").is_ok());
}

TEST(PlanTest, CorruptDecisionCarriesByteRange) {
  auto plan = *Plan::parse("corrupt@copy:k:offset=7,len=3");
  const Decision decision = plan->consult(Site::kCopy, "k");
  EXPECT_EQ(decision.action, Decision::Action::kCorrupt);
  EXPECT_EQ(decision.corrupt_offset, 7u);
  EXPECT_EQ(decision.corrupt_len, 3u);
  // Defaults: flip the first byte.
  auto whole = *Plan::parse("corrupt@copy:k");
  const Decision defaulted = whole->consult(Site::kCopy, "k");
  EXPECT_EQ(defaulted.corrupt_offset, 0u);
  EXPECT_EQ(defaulted.corrupt_len, 1u);
}

TEST(PlanParseTest, PartitionParsesPairKeyAndWindow) {
  auto plan = Plan::parse("partition@gns:gns-0-gns-1:at=2,until=5");
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  const Rule& rule = (*plan)->rules()[0];
  EXPECT_EQ(rule.op, Op::kPartition);
  // The grammar spells the site `gns`; the parser remaps the rule to
  // the sync plane so lookups keep working while replication is cut.
  EXPECT_EQ(rule.site, Site::kGnsSync);
  EXPECT_EQ(rule.key_glob, "gns-0-gns-1");
  EXPECT_DOUBLE_EQ(rule.at_s, 2.0);
  EXPECT_DOUBLE_EQ(rule.until_s, 5.0);
  EXPECT_FALSE(Plan::parse("partition@rpc:a>b").is_ok());
  EXPECT_FALSE(Plan::parse("partition@copy:*").is_ok());
}

TEST(PlanTest, PartitionWindowSeversThenHeals) {
  ManualClock clock;
  auto plan = *Plan::parse("partition@gns:*:at=1,until=3");
  plan->set_clock(&clock);
  // t=0: before the window opens, sync flows.
  EXPECT_EQ(plan->consult(Site::kGnsSync, "gns-0-gns-1").action,
            Decision::Action::kNone);
  clock.advance(from_seconds_d(2));  // t=2: inside [at, until)
  EXPECT_EQ(plan->consult(Site::kGnsSync, "gns-0-gns-1").action,
            Decision::Action::kSever);
  EXPECT_EQ(plan->consult(Site::kGnsSync, "gns-1-gns-2").action,
            Decision::Action::kSever);
  clock.advance(from_seconds_d(2));  // t=4: healed
  EXPECT_EQ(plan->consult(Site::kGnsSync, "gns-0-gns-1").action,
            Decision::Action::kNone);
  EXPECT_EQ(plan->injection_count(), 2u);
}

TEST(PlanTest, PartitionScheduleReplaysByteIdentically) {
  // The golden guarantee extends to the new op: same spec = identical
  // injection log, and the pair key glob picks out exactly one pair.
  auto drive = [] {
    auto plan = *Plan::parse("seed=9;partition@gns:gns-0-gns-1");
    for (int i = 0; i < 5; ++i) {
      (void)plan->consult(Site::kGnsSync, "gns-0-gns-1");
      (void)plan->consult(Site::kGnsSync, "gns-0-gns-2");
    }
    return plan->injection_log();
  };
  const std::vector<std::string> first = drive();
  ASSERT_EQ(first.size(), 5u);  // only the named pair, every consult
  EXPECT_EQ(first, drive());
}

TEST(PlanTest, ControlPlaneDeathIsPermanent) {
  auto plan = *Plan::parse("die@gns:gns-0;die@nws:freak");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(plan->consult(Site::kGns, "gns-0").action,
              Decision::Action::kKill);
    EXPECT_EQ(plan->consult(Site::kNws, "freak").action,
              Decision::Action::kKill);
  }
  EXPECT_EQ(plan->consult(Site::kGns, "gns-1").action,
            Decision::Action::kNone);
  EXPECT_EQ(plan->injection_count(), 10u);
}

TEST(PlanTest, CrashIsPermanent) {
  auto plan = *Plan::parse("crash@host:*>down");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(plan->consult(Site::kRpc, "a>down").action,
              Decision::Action::kFail);
  }
  EXPECT_EQ(plan->consult(Site::kRpc, "a>up").action,
            Decision::Action::kNone);
  EXPECT_EQ(plan->injection_count(), 5u);
}

TEST(RetryPolicyTest, BackoffIsCappedJitteredAndDeterministic) {
  ArmedPlan armed("seed=11;drop@rpc:never-matches");
  const RetryPolicy policy;
  double previous = 0;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double base = std::min(
        to_seconds_d(policy.initial_backoff) *
            std::pow(policy.multiplier, attempt - 1),
        to_seconds_d(policy.max_backoff));
    const double got = to_seconds_d(policy.backoff(attempt, 99));
    EXPECT_GE(got, base * 0.5 - 1e-12) << attempt;
    EXPECT_LT(got, base) << attempt;
    EXPECT_EQ(got, to_seconds_d(policy.backoff(attempt, 99)));
    if (attempt > 1) EXPECT_GE(got, previous * 0.25);
    previous = got;
  }
  EXPECT_TRUE(RetryPolicy::retryable(ErrorCode::kUnavailable));
  EXPECT_TRUE(RetryPolicy::retryable(ErrorCode::kTimeout));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::kDataLoss));
  EXPECT_FALSE(RetryPolicy::retryable(ErrorCode::kInvalidArgument));
}

TEST(RetryPolicyTest, DeadlineBoundsRetries) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.within_deadline(from_seconds_d(100)));  // no deadline
  policy.deadline = from_seconds_d(0.5);
  EXPECT_TRUE(policy.within_deadline(from_seconds_d(0.4)));
  EXPECT_FALSE(policy.within_deadline(from_seconds_d(0.6)));
}

Bytes pattern(std::size_t n, unsigned seed = 1) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 151 + seed) & 0xFF);
  }
  return out;
}

/// Grid-in-a-box fixture for per-mode fault tolerance: GNS + two file
/// servers (dione, vpac27) + replica catalog + NWS estimates.
class FaultFmTest : public ::testing::Test {
 protected:
  FaultFmTest()
      : dir_(*TempDir::create("fault-fm")), network_(clock_),
        dione_transport_(network_.transport("dione")),
        vpac_transport_(network_.transport("vpac27")),
        gns_(*dione_transport_, gns::GnsCluster::Options{}),
        file_server_(dir_.file("export"), *dione_transport_,
                     net::inproc_endpoint("dione", "fs")),
        vpac_server_(dir_.file("export2"), *vpac_transport_,
                     net::inproc_endpoint("vpac27", "fs")),
        catalog_server_(catalog_, *dione_transport_,
                        net::inproc_endpoint("dione", "rc")) {
    obs::MetricsRegistry::global().reset();
    EXPECT_TRUE(
        gns_.add_replica("gns-0", net::inproc_endpoint("dione", "gns"))
            .is_ok());
    EXPECT_TRUE(gns_.start().is_ok());
    EXPECT_TRUE(file_server_.start().is_ok());
    EXPECT_TRUE(vpac_server_.start().is_ok());
    EXPECT_TRUE(catalog_server_.start().is_ok());
    estimator_.set("dione", {0.001, 10e6});
    estimator_.set("vpac27", {0.01, 5e6});
  }

  ~FaultFmTest() override {
    disarm();  // belt and braces: no plan may leak into other tests
    catalog_server_.stop();
    vpac_server_.stop();
    file_server_.stop();
    gns_.stop();
  }

  struct Fm {
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<gns::ReplicatedNameService> gns;
    std::unique_ptr<core::FileMultiplexer> fm;
    core::FileMultiplexer* operator->() { return fm.get(); }
  };

  Fm make_fm(const std::string& host) {
    Fm out;
    out.transport = network_.transport(host);
    out.gns = std::make_unique<gns::ReplicatedNameService>(*out.transport);
    for (const gns::ReplicaAddress& replica : gns_.endpoints()) {
      out.gns->add_replica(replica.name, replica.endpoint);
    }
    core::FileMultiplexer::Options options;
    options.host = host;
    options.local_root = dir_.file("root-" + host).string();
    options.scratch_dir = dir_.file("scratch-" + host).string();
    options.gns = out.gns.get();
    options.transport = out.transport.get();
    options.estimator = &estimator_;
    out.fm = std::make_unique<core::FileMultiplexer>(options);
    return out;
  }

  void add_rule(const std::string& host, const std::string& path,
                gns::FileMapping mapping) {
    gns::MappingRule rule;
    rule.host_pattern = host;
    rule.path_pattern = path;
    rule.mapping = std::move(mapping);
    ASSERT_TRUE(gns_.add_rule(std::move(rule)).is_ok());
  }

  Bytes read_all(Fm& fm, const std::string& path) {
    Bytes got;
    auto fd = fm->open(path, vfs::OpenFlags::input());
    EXPECT_TRUE(fd.is_ok()) << fd.status();
    if (!fd.is_ok()) return got;
    Bytes buffer(8192);
    while (true) {
      auto n = fm->read(*fd, {buffer.data(), buffer.size()});
      EXPECT_TRUE(n.is_ok()) << n.status();
      if (!n.is_ok() || *n == 0) break;
      got.insert(got.end(), buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(*n));
    }
    EXPECT_TRUE(fm->close(*fd).is_ok());
    return got;
  }

  TempDir dir_;
  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> dione_transport_;
  std::unique_ptr<net::Transport> vpac_transport_;
  gns::GnsCluster gns_;
  remote::FileServer file_server_;
  remote::FileServer vpac_server_;
  replica::Catalog catalog_;
  replica::CatalogServer catalog_server_;
  nws::StaticLinkEstimator estimator_;
};

TEST_F(FaultFmTest, ProxyReadRetriesDroppedRpc) {
  const Bytes data = pattern(30000, 3);
  ASSERT_TRUE(
      vfs::write_file((file_server_.root() / "p.bin").string(), data)
          .is_ok());
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kRemoteProxy;
  mapping.remote_endpoint = file_server_.endpoint().to_string();
  mapping.remote_path = "p.bin";
  add_rule("jagan", "*proxy.dat", mapping);

  ArmedPlan armed("seed=5;drop@rpc:jagan>dione:nth=3,count=1");
  auto fm = make_fm("jagan");
  EXPECT_EQ(read_all(fm, "proxy.dat"), data);
  EXPECT_EQ(counter_value("fault.injected.drop"), 1u);
  EXPECT_GE(counter_value("retry.attempts"), 1u);
}

TEST_F(FaultFmTest, StagedFetchResendsTruncatedChunk) {
  const Bytes data = pattern(70000, 7);
  ASSERT_TRUE(
      vfs::write_file((file_server_.root() / "staged.bin").string(), data)
          .is_ok());
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kRemoteCopy;
  mapping.remote_endpoint = file_server_.endpoint().to_string();
  mapping.remote_path = "staged.bin";
  add_rule("jagan", "*staged.dat", mapping);

  ArmedPlan armed("seed=5;truncate@copy:staged.bin:nth=1");
  auto fm = make_fm("jagan");
  EXPECT_EQ(read_all(fm, "staged.dat"), data);
  EXPECT_EQ(counter_value("fault.injected.truncate"), 1u);
  EXPECT_GE(counter_value("retry.attempts"), 1u);
}

TEST_F(FaultFmTest, AutoCopyChecksumCatchesCorruption) {
  const Bytes data = pattern(200000, 9);
  ASSERT_TRUE(
      vfs::write_file((file_server_.root() / "scan.bin").string(), data)
          .is_ok());
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kAuto;
  mapping.remote_endpoint = file_server_.endpoint().to_string();
  mapping.remote_path = "scan.bin";
  mapping.access_fraction = 1.0;
  add_rule("jagan", "*scan.dat", mapping);
  estimator_.set("dione", {0.3, 1e6});  // full scan over nasty latency

  ArmedPlan armed("seed=5;corrupt@copy:scan.bin:nth=1");
  auto fm = make_fm("jagan");
  EXPECT_EQ(read_all(fm, "scan.dat"), data);
  EXPECT_EQ(counter_value("fault.injected.corrupt"), 1u);
  EXPECT_GE(counter_value("retry.attempts"), 1u);
}

TEST_F(FaultFmTest, ChecksumCatchesMidFileByteRangeCorruption) {
  const Bytes data = pattern(200000, 17);
  ASSERT_TRUE(
      vfs::write_file((file_server_.root() / "range.bin").string(), data)
          .is_ok());
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kAuto;
  mapping.remote_endpoint = file_server_.endpoint().to_string();
  mapping.remote_path = "range.bin";
  mapping.access_fraction = 1.0;
  add_rule("jagan", "*range.dat", mapping);
  estimator_.set("dione", {0.3, 1e6});

  // A 64-byte flip deep inside the first fetched chunk: the whole-file
  // checksum must still catch it and the retry must deliver clean data.
  ArmedPlan armed(
      "seed=5;corrupt@copy:range.bin:nth=1,offset=150000,len=64");
  auto fm = make_fm("jagan");
  EXPECT_EQ(read_all(fm, "range.dat"), data);
  EXPECT_EQ(counter_value("fault.injected.corrupt"), 1u);
  EXPECT_GE(counter_value("retry.attempts"), 1u);
}

TEST_F(FaultFmTest, ReplicatedReadFailsOverOnHostCrash) {
  // Bigger than one proxy block (64 KiB) so the tail genuinely needs
  // more RPCs — a fully cached file would never notice the crash.
  const Bytes data = pattern(200000, 11);
  ASSERT_TRUE(
      vfs::write_file((file_server_.root() / "rep.bin").string(), data)
          .is_ok());
  ASSERT_TRUE(
      vfs::write_file((vpac_server_.root() / "rep.bin").string(), data)
          .is_ok());
  catalog_.add("lfn/rep",
               {"dione", file_server_.endpoint().to_string(), "rep.bin",
                data.size(), fnv1a(data)});
  catalog_.add("lfn/rep",
               {"vpac27", vpac_server_.endpoint().to_string(), "rep.bin",
                data.size(), fnv1a(data)});
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kReplicated;
  mapping.logical_name = "lfn/rep";
  mapping.catalog_endpoint = catalog_server_.endpoint().to_string();
  add_rule("jagan", "*rep.dat", mapping);

  auto fm = make_fm("jagan");
  auto fd = fm->open("rep.dat", vfs::OpenFlags::input());
  ASSERT_TRUE(fd.is_ok()) << fd.status();
  Bytes got(data.size());
  // First half streams from the cheap replica (dione)...
  ASSERT_EQ(fm->read(*fd, {got.data(), 30000}).value(), 30000u);
  // ...then dione dies mid-stream and the reader must fail over. Short
  // reads are legal (the proxy client drains its cache before the dead
  // link surfaces an error on the next call), so read in a loop.
  ArmedPlan armed("crash@host:*>dione");
  std::size_t off = 30000;
  while (off < got.size()) {
    auto rest = fm->read(*fd, {got.data() + off, got.size() - off});
    ASSERT_TRUE(rest.is_ok()) << rest.status();
    ASSERT_GT(*rest, 0u);
    off += *rest;
  }
  EXPECT_EQ(got, data);
  EXPECT_GE(counter_value("failover.switches"), 1u);
  EXPECT_GE(counter_value("fault.injected.crash"), 1u);
  ASSERT_TRUE(fm->close(*fd).is_ok());
}

// ---------------------------------------------------------------------
// Workflow-level tolerance: injected mid-stream faults, identical final
// artifacts (hash-compared against a fault-free run).

apps::AppKernel make_kernel(const std::string& name, double work,
                            std::vector<apps::StreamSpec> inputs,
                            std::vector<apps::StreamSpec> outputs) {
  apps::AppKernel kernel;
  kernel.name = name;
  kernel.work_units = work;
  kernel.timesteps = 8;
  kernel.inputs = std::move(inputs);
  kernel.outputs = std::move(outputs);
  kernel.verify_inputs = true;
  return kernel;
}

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

class FaultWorkflowTest : public ::testing::Test {
 protected:
  FaultWorkflowTest() { obs::MetricsRegistry::global().reset(); }
  ~FaultWorkflowTest() override { disarm(); }

  /// Runs tiny_pipeline under `mode` on `machines` with `fault_spec`
  /// armed (empty = clean) and returns the final artifact's hash.
  std::uint64_t run_and_hash(workflow::CouplingMode mode,
                             const std::vector<std::string>& machines,
                             const std::string& fault_spec) {
    auto scratch = TempDir::create("fault-wf");
    EXPECT_TRUE(scratch.is_ok());
    testbed::TestbedRuntime testbed(0.0002, scratch->path().string(),
                                    /*byte_scale=*/1.0);
    std::shared_ptr<Plan> plan;
    if (!fault_spec.empty()) {
      auto parsed = Plan::parse(fault_spec);
      EXPECT_TRUE(parsed.is_ok()) << parsed.status();
      plan = *parsed;
      arm(plan, &testbed.clock());
    }
    workflow::WorkflowRunner runner(testbed);
    auto spec =
        workflow::WorkflowSpec::from_pipeline("ft", tiny_pipeline(),
                                              machines);
    EXPECT_TRUE(spec.is_ok());
    workflow::WorkflowRunner::Options options;
    options.mode = mode;
    options.poll_interval = std::chrono::milliseconds(200);
    auto report = runner.run(*spec, options);
    disarm();
    EXPECT_TRUE(report.is_ok()) << report.status();
    if (plan) EXPECT_GE(plan->injection_count(), 1u);
    auto final_bytes = vfs::read_file(
        (std::filesystem::path(scratch->path()) / machines.back() /
         "final.dat")
            .string());
    EXPECT_TRUE(final_bytes.is_ok()) << final_bytes.status();
    return final_bytes.is_ok() ? fnv1a(*final_bytes) : 0;
  }
};

TEST_F(FaultWorkflowTest, SequentialStagedCopySurvivesTruncatedChunk) {
  const std::vector<std::string> machines{"brecca", "dione", "freak"};
  const std::uint64_t clean =
      run_and_hash(workflow::CouplingMode::kSequentialFiles, machines, "");
  const std::uint64_t faulted =
      run_and_hash(workflow::CouplingMode::kSequentialFiles, machines,
                   "seed=3;truncate@copy:*mid.dat:nth=1");
  EXPECT_EQ(faulted, clean);
  EXPECT_GE(counter_value("retry.attempts"), 1u);
  EXPECT_EQ(counter_value("fault.injected.truncate"), 1u);
}

TEST_F(FaultWorkflowTest, ConcurrentFilesSurvivesDroppedGnsRpc) {
  const std::vector<std::string> machines{"jagan", "jagan", "jagan"};
  const std::uint64_t clean =
      run_and_hash(workflow::CouplingMode::kConcurrentFiles, machines, "");
  const std::uint64_t faulted =
      run_and_hash(workflow::CouplingMode::kConcurrentFiles, machines,
                   "seed=3;drop@rpc:jagan>jagan:nth=1,count=1");
  EXPECT_EQ(faulted, clean);
  EXPECT_GE(counter_value("retry.attempts"), 1u);
  EXPECT_EQ(counter_value("fault.injected.drop"), 1u);
}

TEST_F(FaultWorkflowTest, GridBufferWriterDeathRecoversViaStagedRerun) {
  const std::vector<std::string> machines{"jagan", "jagan", "jagan"};
  const std::uint64_t clean =
      run_and_hash(workflow::CouplingMode::kGridBuffers, machines, "");
  // The out.dat writer dies once its stream passes 30 kB: the reader
  // drains the cache, surfaces kDataLoss, and the runner re-runs both
  // failed stages over a staged-file remap.
  const std::uint64_t faulted =
      run_and_hash(workflow::CouplingMode::kGridBuffers, machines,
                   "seed=3;die@peer:*out.dat:after=30000");
  EXPECT_EQ(faulted, clean);
  EXPECT_GE(counter_value("stage.reruns"), 1u);
  EXPECT_EQ(counter_value("fault.injected.peer_death"), 1u);
}

TEST_F(FaultWorkflowTest, EmptyPlanLeavesHooksDisarmed) {
  EXPECT_EQ(armed(), nullptr);
  const std::uint64_t clean =
      run_and_hash(workflow::CouplingMode::kGridBuffers, {"jagan"}, "");
  EXPECT_NE(clean, 0u);
  EXPECT_EQ(counter_value("fault.injected.drop"), 0u);
  EXPECT_EQ(counter_value("stage.reruns"), 0u);
}

}  // namespace
}  // namespace griddles::fault
