// Tests for the multicast distribution subsystem (DESIGN.md §12): the
// spanning-tree planner, the relay wire format, FileCopier::copy_to_many
// through recruited FileServer relays (including relay deaths repaired
// mid-transfer), Grid Buffer broadcast channels, and the workflow
// runner's use of both.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/apps/paper_apps.h"
#include "src/common/strings.h"
#include "src/common/tempfile.h"
#include "src/fault/plan.h"
#include "src/gridbuffer/client.h"
#include "src/gridbuffer/server.h"
#include "src/multicast/dist_tree.h"
#include "src/multicast/relay.h"
#include "src/net/inproc.h"
#include "src/obs/metrics.h"
#include "src/remote/copier.h"
#include "src/remote/file_server.h"
#include "src/vfs/local_client.h"
#include "src/workflow/checkpoint.h"
#include "src/workflow/runner.h"

namespace griddles {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Arms a fault plan for the test body and disarms on scope exit.
struct ArmedPlan {
  std::shared_ptr<fault::Plan> plan;

  explicit ArmedPlan(const std::string& spec) {
    auto parsed = fault::Plan::parse(spec);
    EXPECT_TRUE(parsed.is_ok()) << parsed.status();
    if (parsed.is_ok()) {
      plan = *parsed;
      fault::arm(plan);
    }
  }
  ~ArmedPlan() { fault::disarm(); }
};

/// Every pair looks the same: planning degenerates to balanced
/// level-filling with deterministic name tie-breaks.
multicast::PairEstimator flat_estimator() {
  return [](const std::string&, const std::string&)
             -> Result<nws::LinkEstimate> {
    return nws::LinkEstimate{0.001, 1e8};
  };
}

Bytes pattern(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(i * 131 + 7);
  }
  return out;
}

// ---------------------------------------------------------------------
// Planner.

TEST(DistTreeTest, FanoutBoundsRespected) {
  std::vector<std::string> dests;
  for (int i = 0; i < 20; ++i) dests.push_back("h" + std::to_string(i));
  multicast::TreeOptions options;
  options.root_fanout = 2;
  options.max_fanout = 3;
  auto tree = multicast::plan_tree("src", dests, flat_estimator(), options);
  ASSERT_TRUE(tree.is_ok()) << tree.status();
  ASSERT_EQ(tree->nodes.size(), 21u);
  EXPECT_LE(tree->source().children.size(), 2u);
  std::set<std::string> placed;
  for (std::size_t i = 1; i < tree->nodes.size(); ++i) {
    const multicast::TreeNode& node = tree->nodes[i];
    EXPECT_LE(node.children.size(), 3u);
    EXPECT_GE(node.parent, 0);
    EXPECT_TRUE(placed.insert(node.host).second) << node.host;
  }
  EXPECT_EQ(placed.size(), dests.size());
  EXPECT_GE(tree->depth, 2);
}

TEST(DistTreeTest, DeterministicReplanning) {
  std::vector<std::string> dests = {"e", "a", "d", "b", "c", "g", "f"};
  multicast::TreeOptions options;
  options.max_fanout = 2;
  auto first = multicast::plan_tree("src", dests, flat_estimator(), options);
  auto second =
      multicast::plan_tree("src", dests, flat_estimator(), options);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  ASSERT_EQ(first->nodes.size(), second->nodes.size());
  for (std::size_t i = 0; i < first->nodes.size(); ++i) {
    EXPECT_EQ(first->nodes[i].host, second->nodes[i].host);
    EXPECT_EQ(first->nodes[i].parent, second->nodes[i].parent);
    EXPECT_EQ(first->nodes[i].children, second->nodes[i].children);
  }
}

TEST(DistTreeTest, CheapLinkBecomesFirstHop) {
  // One destination with a far better link from the source should be
  // recruited as a root child, not buried under a slow peer.
  auto estimator = [](const std::string& src, const std::string& dst)
      -> Result<nws::LinkEstimate> {
    if (src == "src" && dst == "near") {
      return nws::LinkEstimate{0.0001, 1e9};
    }
    return nws::LinkEstimate{0.2, 1e6};
  };
  multicast::TreeOptions options;
  options.root_fanout = 1;
  auto tree = multicast::plan_tree("src", {"far1", "far2", "near"},
                                   estimator, options);
  ASSERT_TRUE(tree.is_ok());
  ASSERT_EQ(tree->source().children.size(), 1u);
  EXPECT_EQ(tree->nodes[tree->source().children[0]].host, "near");
}

TEST(DistTreeTest, EstimatorFailureDegradesToUniform) {
  const std::uint64_t before = counter_value("multicast.plan.uniform");
  auto broken = [](const std::string&, const std::string&)
      -> Result<nws::LinkEstimate> {
    return unavailable("all sensors down");
  };
  auto tree = multicast::plan_tree("src", {"a", "b", "c"}, broken,
                                   multicast::TreeOptions{});
  ASSERT_TRUE(tree.is_ok()) << tree.status();
  EXPECT_TRUE(tree->uniform_fallback);
  EXPECT_EQ(tree->nodes.size(), 4u);
  EXPECT_EQ(counter_value("multicast.plan.uniform"), before + 1);
}

TEST(DistTreeTest, RejectsSourceAndDuplicateDestinations) {
  auto with_source = multicast::plan_tree("src", {"a", "src"},
                                          flat_estimator(), {});
  EXPECT_EQ(with_source.status().code(), ErrorCode::kInvalidArgument);
  auto with_dup =
      multicast::plan_tree("src", {"a", "a"}, flat_estimator(), {});
  EXPECT_EQ(with_dup.status().code(), ErrorCode::kInvalidArgument);
  multicast::TreeOptions bad;
  bad.root_fanout = 0;
  EXPECT_EQ(multicast::plan_tree("src", {"a"}, flat_estimator(), bad)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(DistTreeTest, EmptyDestinationsYieldSourceOnlyTree) {
  auto tree = multicast::plan_tree("src", {}, flat_estimator(), {});
  ASSERT_TRUE(tree.is_ok());
  EXPECT_EQ(tree->nodes.size(), 1u);
  EXPECT_EQ(tree->depth, 0);
  EXPECT_TRUE(tree->relay_hosts().empty());
}

// ---------------------------------------------------------------------
// Relay wire format.

TEST(RelayWireTest, NodeRoundTrip) {
  multicast::RelayNode leaf{"c1", "inproc://c1/fs", "out/f.bin", 2, {}};
  multicast::RelayNode node{"b", "inproc://b/fs", "out/f.bin", 0, {leaf}};
  xdr::Encoder enc;
  multicast::encode_node(enc, node);
  xdr::Decoder dec(enc.buffer());
  auto back = multicast::decode_node(dec);
  ASSERT_TRUE(back.is_ok()) << back.status();
  EXPECT_EQ(back->host, "b");
  EXPECT_EQ(back->path, "out/f.bin");
  ASSERT_EQ(back->children.size(), 1u);
  EXPECT_EQ(back->children[0].host, "c1");
  EXPECT_EQ(back->children[0].readers, 2u);
  EXPECT_EQ(back->subtree_size(), 2u);
}

TEST(RelayWireTest, DepthBombRejected) {
  // A chain deeper than kMaxRelayDepth must fail to decode rather than
  // recurse without bound.
  multicast::RelayNode chain{"h0", "e", "p", 0, {}};
  for (int i = 1; i < multicast::kMaxRelayDepth + 4; ++i) {
    multicast::RelayNode next{"h" + std::to_string(i), "e", "p", 0, {}};
    next.children.push_back(std::move(chain));
    chain = std::move(next);
  }
  xdr::Encoder enc;
  multicast::encode_node(enc, chain);
  xdr::Decoder dec(enc.buffer());
  EXPECT_FALSE(multicast::decode_node(dec).is_ok());
}

// ---------------------------------------------------------------------
// copy_to_many through FileServer relays.

class MulticastCopyTest : public ::testing::Test {
 protected:
  static constexpr int kHosts = 8;

  MulticastCopyTest()
      : dir_(*TempDir::create("mcast-test")), network_(clock_) {
    source_transport_ = network_.transport("src");
    for (int i = 0; i < kHosts; ++i) {
      const std::string host = host_name(i);
      transports_.push_back(network_.transport(host));
      servers_.push_back(std::make_unique<remote::FileServer>(
          dir_.file("export-" + host), *transports_.back(),
          net::inproc_endpoint(host, "fs")));
      EXPECT_TRUE(servers_.back()->start().is_ok());
    }
  }
  ~MulticastCopyTest() override {
    for (auto& server : servers_) server->stop();
  }

  static std::string host_name(int i) {
    return "n" + std::to_string(i);
  }

  std::vector<remote::MultiCopyTarget> targets(int n) const {
    std::vector<remote::MultiCopyTarget> out;
    for (int i = 0; i < n; ++i) {
      out.push_back({host_name(i), servers_[i]->endpoint(),
                     "stage/pay.bin"});
    }
    return out;
  }

  /// Path where host i's FileServer materialized the staged file.
  std::string delivered(int i) const {
    return (servers_[i]->root() / "stage/pay.bin").string();
  }

  std::string make_source(std::size_t bytes) {
    const std::string path = dir_.file("pay.bin").string();
    EXPECT_TRUE(vfs::write_file(path, pattern(bytes)).is_ok());
    return path;
  }

  TempDir dir_;
  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> source_transport_;
  std::vector<std::unique_ptr<net::Transport>> transports_;
  std::vector<std::unique_ptr<remote::FileServer>> servers_;
};

TEST_F(MulticastCopyTest, DeliversToEveryDestinationThroughRelays) {
  constexpr std::size_t kSize = 1024 * 1024 + 7;
  const std::string local = make_source(kSize);
  remote::FileCopier::Options options;
  options.chunk_size = 128 * 1024;
  remote::FileCopier copier(*source_transport_, clock_, options);
  auto stats = copier.copy_to_many(local, targets(kHosts), {},
                                   flat_estimator());
  ASSERT_TRUE(stats.is_ok()) << stats.status();
  EXPECT_EQ(stats->bytes, kSize);
  EXPECT_EQ(stats->destinations, kHosts);
  EXPECT_GE(stats->tree_depth, 2);
  EXPECT_EQ(stats->reparents, 0);
  // The multicast headline: the source pushes each block once per root
  // child (root_fanout = 2), not once per destination.
  EXPECT_EQ(stats->source_bytes_sent, 2 * kSize);
  const std::uint64_t want = *workflow::hash_file(local);
  for (int i = 0; i < kHosts; ++i) {
    EXPECT_EQ(*workflow::hash_file(delivered(i)), want) << host_name(i);
  }
}

TEST_F(MulticastCopyTest, EmptyDestinationListIsNoOp) {
  const std::string local = make_source(1000);
  const std::uint64_t bytes_before = counter_value("remote.copy.bytes");
  remote::FileCopier copier(*source_transport_, clock_);
  auto stats = copier.copy_to_many(local, {}, {}, flat_estimator());
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->destinations, 0);
  EXPECT_EQ(stats->bytes, 0u);
  EXPECT_EQ(counter_value("remote.copy.bytes"), bytes_before);
}

TEST_F(MulticastCopyTest, SingleDestinationMatchesPlainPush) {
  constexpr std::size_t kSize = 300 * 1000;
  const std::string local = make_source(kSize);
  const std::uint64_t bytes_before = counter_value("remote.copy.bytes");
  const std::uint64_t advice_before =
      counter_value("advisor.decisions.copy") +
      counter_value("advisor.decisions.proxy");
  remote::FileCopier copier(*source_transport_, clock_);
  auto stats = copier.copy_to_many(local, targets(1), {}, flat_estimator());
  ASSERT_TRUE(stats.is_ok()) << stats.status();
  EXPECT_EQ(stats->destinations, 1);
  EXPECT_EQ(stats->bytes, kSize);
  EXPECT_EQ(stats->source_bytes_sent, kSize);
  // Exactly the telemetry a plain push() would record: one copy sample,
  // no advisor decision.
  EXPECT_EQ(counter_value("remote.copy.bytes"), bytes_before + kSize);
  EXPECT_EQ(counter_value("advisor.decisions.copy") +
                counter_value("advisor.decisions.proxy"),
            advice_before);
  EXPECT_EQ(*workflow::hash_file(delivered(0)),
            *workflow::hash_file(local));
}

TEST_F(MulticastCopyTest, DuplicateDestinationsCollapse) {
  const std::string local = make_source(50 * 1000);
  const std::uint64_t dups_before = counter_value("multicast.duplicates");
  auto dests = targets(1);
  dests.push_back(dests.front());
  remote::FileCopier copier(*source_transport_, clock_);
  auto stats = copier.copy_to_many(local, dests, {}, flat_estimator());
  ASSERT_TRUE(stats.is_ok()) << stats.status();
  EXPECT_EQ(stats->destinations, 1);
  EXPECT_EQ(counter_value("multicast.duplicates"), dups_before + 1);
  EXPECT_EQ(*workflow::hash_file(delivered(0)),
            *workflow::hash_file(local));
}

TEST_F(MulticastCopyTest, SameHostDifferentPathRejected) {
  const std::string local = make_source(1000);
  auto dests = targets(1);
  auto conflicting = dests.front();
  conflicting.remote_path = "stage/other.bin";
  dests.push_back(conflicting);
  remote::FileCopier copier(*source_transport_, clock_);
  auto stats = copier.copy_to_many(local, dests, {}, flat_estimator());
  EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(MulticastCopyTest, OneAdvisorDecisionPerDistribution) {
  const std::string local = make_source(400 * 1000);
  const std::uint64_t copy_before = counter_value("advisor.decisions.copy");
  const std::uint64_t proxy_before =
      counter_value("advisor.decisions.proxy");
  const std::uint64_t bytes_before = counter_value("remote.copy.bytes");
  remote::FileCopier copier(*source_transport_, clock_);
  auto stats = copier.copy_to_many(local, targets(4), {}, flat_estimator());
  ASSERT_TRUE(stats.is_ok()) << stats.status();
  // Four destinations, ONE logical decision and ONE copy sample — the
  // N-fold double-count this API exists to prevent.
  EXPECT_EQ(counter_value("advisor.decisions.copy") +
                counter_value("advisor.decisions.proxy") - copy_before -
                proxy_before,
            1u);
  EXPECT_EQ(counter_value("remote.copy.bytes"),
            bytes_before + 400 * 1000);
}

TEST_F(MulticastCopyTest, KillingEachInteriorRelayStillDelivers) {
  constexpr std::size_t kSize = 512 * 1024 + 11;
  const std::string local = make_source(kSize);
  const std::uint64_t want = *workflow::hash_file(local);

  // Plan the same tree copy_to_many will (same inputs, deterministic
  // planner) to learn which hosts serve as interior relays.
  multicast::TreeOptions tree_options;
  tree_options.root_fanout = 2;
  tree_options.max_fanout = 2;
  std::vector<std::string> hosts;
  for (int i = 0; i < kHosts; ++i) hosts.push_back(host_name(i));
  auto planned =
      multicast::plan_tree("src", hosts, flat_estimator(), tree_options);
  ASSERT_TRUE(planned.is_ok());
  const std::vector<std::string> relays = planned->relay_hosts();
  ASSERT_GE(relays.size(), 2u) << "fanout 2 over 8 hosts needs relays";

  remote::FileCopier::Options options;
  options.chunk_size = 64 * 1024;
  for (std::size_t k = 0; k < relays.size(); ++k) {
    SCOPED_TRACE("dead relay " + relays[k]);
    const std::uint64_t reparents_before =
        counter_value("multicast.reparents");
    ArmedPlan armed("seed=" + std::to_string(7 + k) + ";die@relay:" +
                    relays[k]);
    remote::FileCopier copier(*source_transport_, clock_, options);
    auto stats = copier.copy_to_many(local, targets(kHosts), tree_options,
                                     flat_estimator());
    ASSERT_TRUE(stats.is_ok()) << stats.status();
    EXPECT_GE(stats->reparents, 1);
    EXPECT_GT(counter_value("multicast.reparents"), reparents_before);
    // Every destination — including the dead relay itself, repaired with
    // a direct push — holds the full file.
    for (int i = 0; i < kHosts; ++i) {
      EXPECT_EQ(*workflow::hash_file(delivered(i)), want) << host_name(i);
    }
  }
}

// ---------------------------------------------------------------------
// Grid Buffer broadcast channels.

class BroadcastBufferTest : public ::testing::Test {
 protected:
  static constexpr int kMachines = 3;

  BroadcastBufferTest()
      : dir_(*TempDir::create("bcast-test")), network_(clock_) {
    client_transport_ = network_.transport("client");
    for (int i = 0; i < kMachines; ++i) {
      const std::string host = "m" + std::to_string(i);
      transports_.push_back(network_.transport(host));
      servers_.push_back(std::make_unique<gridbuffer::GridBufferServer>(
          dir_.file("cache-" + host).string(), *transports_.back(),
          net::inproc_endpoint(host, "gbuf")));
      EXPECT_TRUE(servers_.back()->start().is_ok());
    }
  }
  ~BroadcastBufferTest() override {
    for (auto& server : servers_) server->stop();
  }

  /// Chains m0 -> m1 -> m2: writes into m0 relay through m1 to m2.
  void install_chain(const std::string& channel) {
    gridbuffer::ChannelConfig config;
    config.expected_readers = 1;
    multicast::RelayNode m2{"m2", servers_[2]->endpoint().to_string(),
                            channel, 1, {}};
    multicast::RelayNode m1{"m1", servers_[1]->endpoint().to_string(),
                            channel, 1, {m2}};
    servers_[0]->set_broadcast(channel, config, {m1});
  }

  Bytes read_all_from(int machine, const std::string& channel) {
    auto reader = gridbuffer::GridBufferReader::open(
        *client_transport_, servers_[machine]->endpoint(), channel);
    EXPECT_TRUE(reader.is_ok()) << reader.status();
    Bytes out;
    Bytes buffer(8192);
    while (true) {
      auto n = (*reader)->read({buffer.data(), buffer.size()});
      EXPECT_TRUE(n.is_ok()) << n.status();
      if (!n.is_ok() || *n == 0) break;
      out.insert(out.end(), buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(*n));
    }
    EXPECT_TRUE((*reader)->close().is_ok());
    return out;
  }

  TempDir dir_;
  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> client_transport_;
  std::vector<std::unique_ptr<net::Transport>> transports_;
  std::vector<std::unique_ptr<gridbuffer::GridBufferServer>> servers_;
};

TEST_F(BroadcastBufferTest, ChainDeliversWholeStreamToEveryMachine) {
  install_chain("bc");
  const Bytes data = pattern(3 * 4096 + 1000);
  auto writer = gridbuffer::GridBufferWriter::open(
      *client_transport_, servers_[0]->endpoint(), "bc");
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  ASSERT_TRUE((*writer)->write(data).is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());
  // Every machine's local channel saw the full stream and the EOF.
  for (int machine = 0; machine < kMachines; ++machine) {
    SCOPED_TRACE("machine m" + std::to_string(machine));
    EXPECT_EQ(read_all_from(machine, "bc"), data);
  }
}

TEST_F(BroadcastBufferTest, DeadRelayMachineIsAdoptedByParent) {
  install_chain("bd");
  const std::uint64_t dead_before = counter_value("multicast.relay.dead");
  ArmedPlan armed("seed=11;die@relay:m1");
  const Bytes data = pattern(2 * 4096 + 77);
  auto writer = gridbuffer::GridBufferWriter::open(
      *client_transport_, servers_[0]->endpoint(), "bd");
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  ASSERT_TRUE((*writer)->write(data).is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());
  // m1 is dead as a relay, so m0 adopts its child: m2 still sees the
  // full stream (m1's own readers are the documented loss).
  EXPECT_EQ(read_all_from(0, "bd"), data);
  EXPECT_EQ(read_all_from(2, "bd"), data);
  EXPECT_GT(counter_value("multicast.relay.dead"), dead_before);
}

TEST_F(BroadcastBufferTest, RelayDeathMidRunIsAdoptedByParent) {
  // 16-block runs through one sender; m1 dies on the run that carries
  // its after= mark, partway into that run. m0 adopts m2 for it.
  install_chain("br");
  const std::uint64_t reparents_before = counter_value("multicast.reparents");
  ArmedPlan armed(strings::cat("seed=12;die@relay:m1:after=", 65536 + 5000));
  const Bytes data = pattern(5 * 65536 + 77);
  gridbuffer::GridBufferWriter::Options options;
  options.window_blocks = 16;
  options.flusher_threads = 1;
  auto writer = gridbuffer::GridBufferWriter::open(
      *client_transport_, servers_[0]->endpoint(), "br", options);
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  ASSERT_TRUE((*writer)->write(data).is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());
  EXPECT_EQ(read_all_from(0, "br"), data);
  EXPECT_EQ(read_all_from(2, "br"), data);
  EXPECT_GT(counter_value("multicast.reparents"), reparents_before);
}

// ---------------------------------------------------------------------
// Workflow runner integration.

apps::AppKernel make_kernel(const std::string& name, double work,
                            std::vector<apps::StreamSpec> inputs,
                            std::vector<apps::StreamSpec> outputs) {
  apps::AppKernel kernel;
  kernel.name = name;
  kernel.work_units = work;
  kernel.timesteps = 8;
  kernel.inputs = std::move(inputs);
  kernel.outputs = std::move(outputs);
  kernel.verify_inputs = true;  // every consumer checks content integrity
  return kernel;
}

/// One producer on brecca fanning one file out to consumers on other
/// paper machines.
workflow::WorkflowSpec fan_spec(const std::vector<std::string>& machines,
                                std::uint64_t bytes) {
  workflow::WorkflowSpec spec;
  spec.name = "mfan";
  spec.tasks.push_back(workflow::TaskSpec{
      make_kernel("src", 3, {}, {{"shared.dat", bytes}}), "brecca"});
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const std::string name = "sink" + std::to_string(i);
    spec.tasks.push_back(workflow::TaskSpec{
        make_kernel(name, 2, {{"shared.dat", bytes}},
                    {{name + ".out", 100}}),
        machines[i]});
  }
  return spec;
}

class RunnerMulticastTest : public ::testing::Test {
 protected:
  RunnerMulticastTest() : dir_(*TempDir::create("wf-mcast")) {}

  testbed::TestbedRuntime make_testbed() {
    return testbed::TestbedRuntime(0.0002, dir_.path().string(),
                                   /*byte_scale=*/1.0);
  }

  TempDir dir_;
};

TEST_F(RunnerMulticastTest, SequentialStagingUsesOneTreeForTwoConsumers) {
  auto testbed = make_testbed();
  workflow::WorkflowRunner runner(testbed);
  const auto spec = fan_spec({"dione", "freak"}, 120 * 1000);
  workflow::WorkflowRunner::Options options;
  options.mode = workflow::CouplingMode::kSequentialFiles;
  auto report = runner.run(spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), 3u);
  // One CopyResult per destination, both finishing with the tree.
  ASSERT_EQ(report->copies.size(), 2u);
  std::set<std::string> to;
  for (const auto& copy : report->copies) {
    EXPECT_EQ(copy.path, "shared.dat");
    EXPECT_EQ(copy.from, "brecca");
    to.insert(copy.to);
  }
  EXPECT_EQ(to, (std::set<std::string>{"dione", "freak"}));
}

TEST_F(RunnerMulticastTest, FanoutZeroFallsBackToPointToPoint) {
  auto testbed = make_testbed();
  workflow::WorkflowRunner runner(testbed);
  const auto spec = fan_spec({"dione", "freak"}, 80 * 1000);
  workflow::WorkflowRunner::Options options;
  options.mode = workflow::CouplingMode::kSequentialFiles;
  options.multicast_fanout = 0;
  auto report = runner.run(spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->copies.size(), 2u);
}

TEST_F(RunnerMulticastTest, SequentialStagingSurvivesRelayDeaths) {
  // Kill EVERY relay: each consumer refuses to forward (and even to
  // accept) relay chunks, so the source repairs all of them with direct
  // pushes — verify_inputs then proves every byte still arrived.
  auto testbed = make_testbed();
  ArmedPlan armed("seed=3;die@relay:*");
  const std::uint64_t reparents_before =
      counter_value("multicast.reparents");
  workflow::WorkflowRunner runner(testbed);
  const auto spec = fan_spec({"dione", "freak", "bouscat"}, 90 * 1000);
  workflow::WorkflowRunner::Options options;
  options.mode = workflow::CouplingMode::kSequentialFiles;
  auto report = runner.run(spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), 4u);
  EXPECT_EQ(report->copies.size(), 3u);
  EXPECT_GT(counter_value("multicast.reparents"), reparents_before);
}

TEST_F(RunnerMulticastTest, GridBufferBroadcastAcrossThreeMachines) {
  auto testbed = make_testbed();
  workflow::WorkflowRunner runner(testbed);
  const auto spec = fan_spec({"dione", "freak", "bouscat"}, 60 * 1000);
  workflow::WorkflowRunner::Options options;
  options.mode = workflow::CouplingMode::kGridBuffers;
  auto report = runner.run(spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), 4u);
  EXPECT_TRUE(report->copies.empty());
  // verify_inputs=true on every sink already proved the broadcast
  // delivered identical bytes to all three consumer machines.
}

}  // namespace
}  // namespace griddles
