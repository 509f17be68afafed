// Tests for the multicast distribution subsystem (DESIGN.md §12): the
// spanning-tree planner, the relay wire format, FileCopier::copy_to_many
// through recruited FileServer relays (including relay deaths repaired
// mid-transfer), Grid Buffer broadcast channels, and the workflow
// runner's use of both.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

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
    return read_all_from(servers_[machine]->endpoint(), channel);
  }

  Bytes read_all_from(const net::Endpoint& server,
                      const std::string& channel) {
    auto reader = gridbuffer::GridBufferReader::open(*client_transport_,
                                                     server, channel);
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

  /// Bytes `server`'s local `channel` holds so far (0 before it opens).
  static std::uint64_t frontier(gridbuffer::GridBufferServer& server,
                                const std::string& channel) {
    auto chan = server.store().find(channel);
    if (!chan.is_ok()) return 0;
    auto stat = (*chan)->stat(false, 0);
    return stat.is_ok() ? stat->frontier : 0;
  }

  TempDir dir_;
  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> client_transport_;
  std::vector<std::unique_ptr<net::Transport>> transports_;
  std::vector<std::unique_ptr<gridbuffer::GridBufferServer>> servers_;
};

/// A transport that breaks one connection to `host` once: the first
/// reply awaited after the `break_after`-th message sent there is taken
/// off the wire and dropped, and the connection is closed. The request
/// it answered was served, so the client's reconnect resends a request
/// its server already ran.
class BreakOnceTransport : public net::Transport {
 public:
  BreakOnceTransport(std::unique_ptr<net::Transport> inner, std::string host,
                     int break_after)
      : inner_(std::move(inner)), host_(std::move(host)),
        break_after_(break_after) {}

  Result<std::unique_ptr<net::Connection>> connect(
      const net::Endpoint& remote) override {
    GL_ASSIGN_OR_RETURN(auto conn, inner_->connect(remote));
    if (remote.host != host_) return conn;
    connects_.fetch_add(1);
    return std::unique_ptr<net::Connection>(
        std::make_unique<Breaking>(std::move(conn), *this));
  }
  Result<std::unique_ptr<net::Listener>> listen(
      const net::Endpoint& local) override {
    return inner_->listen(local);
  }
  const std::string& local_host() const override {
    return inner_->local_host();
  }

  int connects() const { return connects_.load(); }
  bool broke() const { return broke_.load(); }

 private:
  class Breaking : public net::Connection {
   public:
    Breaking(std::unique_ptr<net::Connection> inner, BreakOnceTransport& owner)
        : inner_(std::move(inner)), owner_(owner) {}
    Status send(Buffer message) override {
      if (owner_.sent_.fetch_add(1) + 1 == owner_.break_after_) {
        owner_.armed_.store(true);
      }
      return inner_->send(std::move(message));
    }
    Result<Buffer> recv() override { return maybe_break(inner_->recv()); }
    Result<Buffer> recv_until(WallClock::time_point deadline) override {
      return maybe_break(inner_->recv_until(deadline));
    }
    void close() override { inner_->close(); }
    std::string peer() const override { return inner_->peer(); }

   private:
    Result<Buffer> maybe_break(Result<Buffer> reply) {
      if (!reply.is_ok() || !owner_.armed_.exchange(false)) return reply;
      inner_->close();
      owner_.broke_.store(true);
      return closed_error("connection broken by the test transport");
    }
    std::unique_ptr<net::Connection> inner_;
    BreakOnceTransport& owner_;
  };

  std::unique_ptr<net::Transport> inner_;
  const std::string host_;
  const int break_after_;
  std::atomic<int> sent_{0};
  std::atomic<int> connects_{0};
  std::atomic<bool> armed_{false};
  std::atomic<bool> broke_{false};
};

/// A transport that cuts every request for `method` to `host`, as if the
/// host were cut off from this machine for that call while it stays up
/// for every other. A cut request fails to send, or with `swallow` is
/// lost on the way: it sends, and no reply ever comes.
class CutMethodTransport : public net::Transport {
 public:
  CutMethodTransport(std::unique_ptr<net::Transport> inner, std::string host,
                     std::uint16_t method, bool swallow = false)
      : inner_(std::move(inner)), host_(std::move(host)), method_(method),
        swallow_(swallow) {}

  Result<std::unique_ptr<net::Connection>> connect(
      const net::Endpoint& remote) override {
    GL_ASSIGN_OR_RETURN(auto conn, inner_->connect(remote));
    if (remote.host != host_) return conn;
    return std::unique_ptr<net::Connection>(
        std::make_unique<Cutting>(std::move(conn), method_, swallow_));
  }
  Result<std::unique_ptr<net::Listener>> listen(
      const net::Endpoint& local) override {
    return inner_->listen(local);
  }
  const std::string& local_host() const override {
    return inner_->local_host();
  }

 private:
  class Cutting : public net::Connection {
   public:
    Cutting(std::unique_ptr<net::Connection> inner, std::uint16_t method,
            bool swallow)
        : inner_(std::move(inner)), method_(method), swallow_(swallow) {}
    Status send(Buffer message) override {
      auto frame = net::decode_frame(message, net::WireFormat::kBinary);
      if (frame.is_ok() && frame->method == method_) {
        if (swallow_) return Status::ok();
        return closed_error("request cut off by the test transport");
      }
      return inner_->send(std::move(message));
    }
    Result<Buffer> recv() override { return inner_->recv(); }
    Result<Buffer> recv_until(WallClock::time_point deadline) override {
      return inner_->recv_until(deadline);
    }
    void close() override { inner_->close(); }
    std::string peer() const override { return inner_->peer(); }

   private:
    std::unique_ptr<net::Connection> inner_;
    const std::uint16_t method_;
    const bool swallow_;
  };

  std::unique_ptr<net::Transport> inner_;
  const std::string host_;
  const std::uint16_t method_;
  const bool swallow_;
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

TEST_F(BroadcastBufferTest, RelayDeathWithRunsUnansweredIsAdopted) {
  // The writer's default kRunsOnWire runs on the wire, so m0's edge to m1
  // holds several unanswered runs when m1 dies partway through the stream.
  // m0 adopts every later run and the close onto m2; the close waits at
  // m2 for the runs m1 had already forwarded.
  install_chain("bu");
  const std::uint64_t reparents_before = counter_value("multicast.reparents");
  const Bytes data = pattern(40 * 32768 + 77);
  ArmedPlan armed(strings::cat("seed=13;die@relay:m1:after=", 20 * 32768));
  auto writer = gridbuffer::GridBufferWriter::open(
      *client_transport_, servers_[0]->endpoint(), "bu");
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  for (std::size_t at = 0; at < data.size(); at += 32768) {
    const std::size_t n = std::min<std::size_t>(32768, data.size() - at);
    ASSERT_TRUE((*writer)->write({data.data() + at, n}).is_ok());
  }
  ASSERT_TRUE((*writer)->close().is_ok());
  EXPECT_EQ(read_all_from(0, "bu"), data);
  EXPECT_EQ(read_all_from(2, "bu"), data);
  EXPECT_GT(counter_value("multicast.reparents"), reparents_before);
}

TEST_F(BroadcastBufferTest, AdoptedCloseWaitsForRunsStillOnTheirWay) {
  // m0 cannot send m1 the close, though m1 is up, so m0 adopts the close
  // onto m2 while m1 still has runs on their way there: m2 bounds unread
  // bytes at one run and has no reader yet, so they stall on m1's edge.
  // The close must not overtake them. m2 closes once it holds the whole
  // stream, which its first reader lets in.
  constexpr std::size_t kRun = 32768;  // 8 blocks: the default writer run
  CutMethodTransport transport(
      network_.transport("m0"), "m1",
      gridbuffer::method_id(gridbuffer::Method::kRelayClose));
  gridbuffer::GridBufferServer root(dir_.file("cache-m0-cut").string(),
                                    transport,
                                    net::inproc_endpoint("m0", "gbuf-cut"));
  ASSERT_TRUE(root.start().is_ok());
  gridbuffer::ChannelConfig config;
  config.expected_readers = 1;
  gridbuffer::ChannelConfig stalling = config;
  stalling.max_unread_bytes = kRun;
  ASSERT_TRUE(servers_[2]->store().open("ca", stalling).is_ok());
  multicast::RelayNode m2{"m2", servers_[2]->endpoint().to_string(), "ca", 1,
                          {}};
  multicast::RelayNode m1{"m1", servers_[1]->endpoint().to_string(), "ca", 1,
                          {m2}};
  root.set_broadcast("ca", config, {m1});

  const std::uint64_t dead_before = counter_value("multicast.relay.dead");
  const Bytes data = pattern(gridbuffer::kRunsOnWire * kRun);
  auto writer = gridbuffer::GridBufferWriter::open(*client_transport_,
                                                   root.endpoint(), "ca");
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  for (std::size_t at = 0; at < data.size(); at += kRun) {
    ASSERT_TRUE((*writer)->write({data.data() + at, kRun}).is_ok());
  }
  Status closed = Status::ok();
  std::thread closer([&] { closed = (*writer)->close(); });

  // m0 gives up on m1 and sends the close to m2, which is still short.
  for (int polls = 0;
       counter_value("multicast.relay.dead") == dead_before && polls < 500;
       ++polls) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(counter_value("multicast.relay.dead"), dead_before);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(frontier(*servers_[2], "ca"), data.size());

  EXPECT_EQ(read_all_from(2, "ca"), data);
  closer.join();
  EXPECT_TRUE(closed.is_ok()) << closed;
  EXPECT_EQ(read_all_from(root.endpoint(), "ca"), data);
  root.stop();
}

TEST_F(BroadcastBufferTest, ShortCopyFailsTheCloseAndIsReportedDead) {
  // As above, but the runs m1 forwards to m2 are lost on the way. m2
  // never comes to hold the stream, so it fails the close that m0
  // adopts onto it once nothing has landed for a while: its writer stays
  // open, and m0 reports it dead along with m1.
  constexpr std::size_t kRun = 32768;
  CutMethodTransport root_transport(
      network_.transport("m0"), "m1",
      gridbuffer::method_id(gridbuffer::Method::kRelayClose));
  CutMethodTransport relay_transport(
      network_.transport("m1"), "m2",
      gridbuffer::method_id(gridbuffer::Method::kRelayWrite),
      /*swallow=*/true);
  gridbuffer::GridBufferServer root(dir_.file("cache-m0-short").string(),
                                    root_transport,
                                    net::inproc_endpoint("m0", "gbuf-short"));
  gridbuffer::GridBufferServer relay(dir_.file("cache-m1-short").string(),
                                     relay_transport,
                                     net::inproc_endpoint("m1", "gbuf-short"));
  ASSERT_TRUE(root.start().is_ok());
  ASSERT_TRUE(relay.start().is_ok());
  gridbuffer::ChannelConfig config;
  config.expected_readers = 1;
  multicast::RelayNode m2{"m2", servers_[2]->endpoint().to_string(), "cs", 1,
                          {}};
  multicast::RelayNode m1{"m1", relay.endpoint().to_string(), "cs", 1, {m2}};
  root.set_broadcast("cs", config, {m1});

  const std::uint64_t dead_before = counter_value("multicast.relay.dead");
  const Bytes data = pattern(2 * kRun);
  auto writer = gridbuffer::GridBufferWriter::open(*client_transport_,
                                                   root.endpoint(), "cs");
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  ASSERT_TRUE((*writer)->write(data).is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());

  EXPECT_EQ(counter_value("multicast.relay.dead") - dead_before, 2u);
  auto at_m2 = servers_[2]->store().find("cs");
  ASSERT_TRUE(at_m2.is_ok()) << at_m2.status();
  EXPECT_FALSE((*at_m2)->writer_closed());
  EXPECT_EQ(read_all_from(root.endpoint(), "cs"), data);
  relay.stop();
  root.stop();
}

TEST_F(BroadcastBufferTest, BrokenEdgeResendsUnansweredRuns) {
  // A second first hop on m0 whose connections to m1 break once, after
  // the 6th frame: the edge reconnects and resends its unanswered runs,
  // at least one of which m1 had already stored. The repeat is an
  // identical rewrite, so every machine still holds the exact stream.
  auto transport = std::make_unique<BreakOnceTransport>(
      network_.transport("m0"), "m1", 6);
  BreakOnceTransport& breaking = *transport;
  gridbuffer::GridBufferServer root(dir_.file("cache-m0-break").string(),
                                    breaking,
                                    net::inproc_endpoint("m0", "gbuf-break"));
  ASSERT_TRUE(root.start().is_ok());
  gridbuffer::ChannelConfig config;
  config.expected_readers = 1;
  multicast::RelayNode m2{"m2", servers_[2]->endpoint().to_string(), "bk", 1,
                          {}};
  multicast::RelayNode m1{"m1", servers_[1]->endpoint().to_string(), "bk", 1,
                          {m2}};
  root.set_broadcast("bk", config, {m1});

  const Bytes data = pattern(16 * 32768 + 77);
  auto writer = gridbuffer::GridBufferWriter::open(*client_transport_,
                                                   root.endpoint(), "bk");
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  for (std::size_t at = 0; at < data.size(); at += 32768) {
    const std::size_t n = std::min<std::size_t>(32768, data.size() - at);
    ASSERT_TRUE((*writer)->write({data.data() + at, n}).is_ok());
  }
  ASSERT_TRUE((*writer)->close().is_ok());
  EXPECT_TRUE(breaking.broke());
  EXPECT_GE(breaking.connects(), 2);
  EXPECT_EQ(read_all_from(root.endpoint(), "bk"), data);
  EXPECT_EQ(read_all_from(1, "bk"), data);
  EXPECT_EQ(read_all_from(2, "bk"), data);
  root.stop();
}

TEST_F(BroadcastBufferTest, FailedWriterFailsEveryRelayedCopy) {
  // The writer dies on m0 once its stream would pass 30,000 bytes, and
  // then closes. Every machine's readers drain what was written and then
  // get kDataLoss: a relayed copy must never end in EOF on a short
  // stream.
  install_chain("bf");
  ArmedPlan armed("seed=14;die@peer:bf:after=30000");
  const Bytes data = pattern(20 * 4096);
  auto writer = gridbuffer::GridBufferWriter::open(
      *client_transport_, servers_[0]->endpoint(), "bf");
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  Status written = Status::ok();
  for (std::size_t at = 0; at < data.size() && written.is_ok(); at += 4096) {
    written = (*writer)->write({data.data() + at, 4096});
  }
  const Status closed = (*writer)->close();
  EXPECT_FALSE(written.is_ok() && closed.is_ok());

  for (int machine = 0; machine < kMachines; ++machine) {
    SCOPED_TRACE("machine m" + std::to_string(machine));
    auto reader = gridbuffer::GridBufferReader::open(
        *client_transport_, servers_[machine]->endpoint(), "bf");
    ASSERT_TRUE(reader.is_ok()) << reader.status();
    Bytes got;
    Bytes buffer(8192);
    Result<std::size_t> n = std::size_t{0};
    while ((n = (*reader)->read({buffer.data(), buffer.size()})).is_ok() &&
           *n > 0) {
      got.insert(got.end(), buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(*n));
    }
    EXPECT_EQ(n.status().code(), ErrorCode::kDataLoss) << "EOF at "
                                                        << got.size();
    ASSERT_LE(got.size(), 30000u);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
  }
}

TEST_F(BroadcastBufferTest, FailedFlushFailsTheStreamForItsReader) {
  // A 1->1 stream whose runs are all lost on the way to m0, which stays
  // up for every other call. The writer's flush fails, so its close must
  // fail the stream: the reader gets kDataLoss, never a clean EOF on a
  // stream that is short of what the writer wrote.
  CutMethodTransport writer_transport(
      network_.transport("client"), "m0",
      gridbuffer::method_id(gridbuffer::Method::kWrite));
  const Bytes data = pattern(4 * 32768);
  auto writer = gridbuffer::GridBufferWriter::open(
      writer_transport, servers_[0]->endpoint(), "cw");
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  const Status written = (*writer)->write(data);
  const Status closed = (*writer)->close();
  EXPECT_FALSE(written.is_ok() && closed.is_ok());

  auto reader = gridbuffer::GridBufferReader::open(
      *client_transport_, servers_[0]->endpoint(), "cw");
  ASSERT_TRUE(reader.is_ok()) << reader.status();
  Bytes buffer(8192);
  Result<std::size_t> n = std::size_t{0};
  std::size_t got = 0;
  while ((n = (*reader)->read({buffer.data(), buffer.size()})).is_ok() &&
         *n > 0) {
    got += *n;
  }
  EXPECT_EQ(n.status().code(), ErrorCode::kDataLoss) << "EOF at " << got;
}

TEST_F(BroadcastBufferTest, ReaderlessChildStallsTheWriter) {
  // m1 expects a reader that has not come, and bounds unread bytes, so
  // its channel stalls. m0's edge then fills up to kRunsOnWire unanswered
  // runs and m0 stops replying, which stalls the writer: m0 never gets
  // more than kRunsOnWire + 1 runs ahead of m1.
  constexpr std::size_t kRun = 32768;  // 8 blocks: the default writer run
  gridbuffer::ChannelConfig config;
  config.expected_readers = 1;
  config.max_unread_bytes = 65536;
  multicast::RelayNode m1{"m1", servers_[1]->endpoint().to_string(), "bs", 1,
                          {}};
  servers_[0]->set_broadcast("bs", config, {m1});

  const Bytes data = pattern(64 * kRun);
  auto writer = gridbuffer::GridBufferWriter::open(
      *client_transport_, servers_[0]->endpoint(), "bs");
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  std::atomic<bool> done{false};
  Status written = Status::ok();
  std::thread producer([&] {
    for (std::size_t at = 0; at < data.size() && written.is_ok(); at += kRun) {
      written = (*writer)->write({data.data() + at, kRun});
    }
    if (written.is_ok()) written = (*writer)->close();
    done.store(true);
  });

  // Wait until m0's frontier has stopped moving; m0 is read before m1, so
  // m1's frontier can only have grown since.
  const std::uint64_t bound = (gridbuffer::kRunsOnWire + 1) * kRun;
  std::uint64_t last = 0;
  for (int still = 0, polls = 0; still < 5 && polls < 200; ++polls) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t at_m0 = frontier(*servers_[0], "bs");
    const std::uint64_t at_m1 = frontier(*servers_[1], "bs");
    EXPECT_LE(at_m0, at_m1 + bound);
    still = at_m0 == last ? still + 1 : 0;
    last = at_m0;
  }
  EXPECT_FALSE(done.load());
  EXPECT_GT(last, 0u);
  EXPECT_LE(last, config.max_unread_bytes + kRun + bound);

  // The reader arrives: the stream drains to every machine.
  EXPECT_EQ(read_all_from(1, "bs"), data);
  producer.join();
  EXPECT_TRUE(written.is_ok()) << written;
  EXPECT_EQ(read_all_from(0, "bs"), data);
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

TEST_F(RunnerMulticastTest, BroadcastWriterDeathRecoversOnEveryMachine) {
  // src's stream dies at its first hop partway through. The relayed copy
  // on the other machine must fail too, not end short, so that all three
  // stages re-run over staged files and every sink verifies its input.
  auto testbed = make_testbed();
  ArmedPlan armed("seed=5;die@peer:*shared.dat:after=30000");
  const std::uint64_t reruns_before = counter_value("stage.reruns");
  workflow::WorkflowRunner runner(testbed);
  const auto spec = fan_spec({"dione", "freak"}, 120 * 1000);
  workflow::WorkflowRunner::Options options;
  options.mode = workflow::CouplingMode::kGridBuffers;
  auto report = runner.run(spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), 3u);
  EXPECT_EQ(counter_value("stage.reruns") - reruns_before, 3u);
}

/// Consumer machines of fan_spec (whose producer is on brecca) and the
/// multicast fanout.
struct BufferLayout {
  std::vector<std::string> machines;
  int fanout = 4;
};

class RunnerMulticastLayoutTest
    : public RunnerMulticastTest,
      public ::testing::WithParamInterface<BufferLayout> {};

TEST_P(RunnerMulticastLayoutTest, GridBufferBroadcastAcrossThreeMachines) {
  auto testbed = make_testbed();
  workflow::WorkflowRunner runner(testbed);
  const auto spec = fan_spec(GetParam().machines, 60 * 1000);
  workflow::WorkflowRunner::Options options;
  options.mode = workflow::CouplingMode::kGridBuffers;
  options.multicast_fanout = GetParam().fanout;
  auto report = runner.run(spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), spec.tasks.size());
  EXPECT_TRUE(report->copies.empty());
  // verify_inputs=true on every sink already proved the broadcast
  // delivered identical bytes to all the consumer machines.
}

// The last four layouts, each with and without multicast, put a consumer
// on the producer's machine.
INSTANTIATE_TEST_SUITE_P(
    Layouts, RunnerMulticastLayoutTest,
    ::testing::Values(
        BufferLayout{{"dione", "freak", "bouscat"}, 4},
        BufferLayout{{"brecca", "dione"}, 0},
        BufferLayout{{"brecca", "dione"}, 4},
        BufferLayout{{"dione", "brecca"}, 0},
        BufferLayout{{"dione", "brecca"}, 4},
        BufferLayout{{"brecca", "dione", "freak"}, 0},
        BufferLayout{{"brecca", "dione", "freak"}, 4},
        BufferLayout{{"dione", "brecca", "freak"}, 0},
        BufferLayout{{"dione", "brecca", "freak"}, 4}));

}  // namespace
}  // namespace griddles
