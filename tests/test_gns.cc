// Tests for the GriddLeS Name Service: mapping model, rule semantics,
// config loading, the client over a 1-node cluster, cache behaviour,
// dynamic remapping.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/clock.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/net/inproc.h"
#include "src/obs/metrics.h"

namespace griddles::gns {
namespace {

TEST(IoModeTest, NamesRoundTrip) {
  for (const IoMode mode :
       {IoMode::kLocal, IoMode::kRemoteCopy, IoMode::kRemoteProxy,
        IoMode::kReplicated, IoMode::kGridBuffer, IoMode::kAuto}) {
    auto parsed = io_mode_from_name(io_mode_name(mode));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(io_mode_from_name("bogus").is_ok());
}

FileMapping sample_mapping() {
  FileMapping mapping;
  mapping.mode = IoMode::kGridBuffer;
  mapping.channel = "wf/JOB.SF";
  mapping.buffer_endpoint = "inproc://dione/gbuf";
  mapping.cache_enabled = false;
  mapping.block_size = 8192;
  mapping.reader_count = 3;
  mapping.record_schema = "f64[3], i32";
  mapping.access_fraction = 0.25;
  mapping.tail = true;
  return mapping;
}

TEST(MappingTest, EncodeDecodeRoundTrip) {
  xdr::Encoder enc;
  encode_mapping(enc, sample_mapping());
  xdr::Decoder dec(enc.buffer());
  auto decoded = decode_mapping(dec);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, sample_mapping());
  EXPECT_TRUE(dec.done());
}

TEST(MappingTest, RuleMatching) {
  MappingRule rule;
  rule.host_pattern = "jagan";
  rule.path_pattern = "/work/JOB.*";
  EXPECT_TRUE(rule.matches("jagan", "/work/JOB.SF"));
  EXPECT_FALSE(rule.matches("dione", "/work/JOB.SF"));
  EXPECT_FALSE(rule.matches("jagan", "/work/RESULT.DAT"));
  rule.host_pattern = "*";
  EXPECT_TRUE(rule.matches("anything", "/work/JOB.TH"));
}

TEST(ConfigTest, RejectsMissingFields) {
  auto config = Config::parse("[mapping:x]\nhost = jagan\n");
  ASSERT_TRUE(config.is_ok());
  EXPECT_FALSE(rules_from_config(*config).is_ok());
}

/// The single-master deployment: a started 1-node GnsCluster on "dione"
/// and a name-service client on "jagan".
class GnsTest : public ::testing::Test {
 protected:
  GnsTest()
      : network_(clock_), server_transport_(network_.transport("dione")),
        client_transport_(network_.transport("jagan")),
        cluster_(*server_transport_, GnsCluster::Options{}) {
    EXPECT_TRUE(
        cluster_.add_replica("gns-0", net::inproc_endpoint("dione", "gns"))
            .is_ok());
    EXPECT_TRUE(cluster_.start().is_ok());
  }
  ~GnsTest() override { cluster_.stop(); }

  std::unique_ptr<ReplicatedNameService> make_service() {
    auto service = std::make_unique<ReplicatedNameService>(*client_transport_);
    for (const ReplicaAddress& replica : cluster_.endpoints()) {
      service->add_replica(replica.name, replica.endpoint);
    }
    return service;
  }

  void add_rule(const std::string& host, const std::string& path,
                FileMapping mapping) {
    MappingRule rule;
    rule.host_pattern = host;
    rule.path_pattern = path;
    rule.mapping = std::move(mapping);
    ASSERT_TRUE(cluster_.add_rule(std::move(rule)).is_ok());
  }

  std::optional<FileMapping> lookup(const std::string& host,
                                    const std::string& path) {
    auto found = make_service()->lookup(host, path);
    EXPECT_TRUE(found.is_ok()) << found.status();
    return found.is_ok() ? *found : std::nullopt;
  }

  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> server_transport_;
  std::unique_ptr<net::Transport> client_transport_;
  GnsCluster cluster_;
};

FileMapping mode_mapping(IoMode mode) {
  FileMapping mapping;
  mapping.mode = mode;
  return mapping;
}

TEST_F(GnsTest, LaterRulesWin) {
  add_rule("*", "*", mode_mapping(IoMode::kLocal));
  add_rule("jagan", "*JOB.SF", mode_mapping(IoMode::kGridBuffer));

  EXPECT_EQ(lookup("jagan", "/w/JOB.SF")->mode, IoMode::kGridBuffer);
  EXPECT_EQ(lookup("jagan", "/w/other")->mode, IoMode::kLocal);
  EXPECT_EQ(lookup("dione", "/w/JOB.SF")->mode, IoMode::kLocal);
}

TEST_F(GnsTest, MissMeansNoMapping) {
  EXPECT_FALSE(lookup("jagan", "/x").has_value());
}

TEST_F(GnsTest, VersionBumpsOnEveryPut) {
  const std::shared_ptr<ReplicaNode> node = cluster_.node("gns-0");
  ASSERT_NE(node, nullptr);
  const std::uint64_t v0 = node->version();
  add_rule("a", "b", FileMapping{});
  const std::uint64_t v1 = node->version();
  EXPECT_GT(v1, v0);
  // A removal is a tombstone put: it versions like any write.
  ASSERT_TRUE(cluster_.remove_rule("a", "b").is_ok());
  EXPECT_GT(node->version(), v1);
}

TEST_F(GnsTest, LoadsFromConfig) {
  auto config = Config::parse(R"(
[mapping:sf]
host = jagan
path = /work/JOB.SF
mode = gridbuffer
channel = wf/JOB.SF
buffer_endpoint = inproc://dione/gbuf
block_size = 8192
readers = 2
cache = false

[mapping:all-remote]
host = *
path = /data/*
mode = remote_proxy
remote_endpoint = inproc://freak/fs
remote_path = data.bin
access_fraction = 0.1
)");
  ASSERT_TRUE(config.is_ok());
  auto rules = rules_from_config(*config);
  ASSERT_TRUE(rules.is_ok()) << rules.status();
  auto service = make_service();
  for (const MappingRule& rule : *rules) {
    ASSERT_TRUE(service->add_rule(rule).is_ok());
  }
  const auto sf = lookup("jagan", "/work/JOB.SF");
  ASSERT_TRUE(sf.has_value());
  EXPECT_EQ(sf->mode, IoMode::kGridBuffer);
  EXPECT_EQ(sf->block_size, 8192u);
  EXPECT_EQ(sf->reader_count, 2u);
  EXPECT_FALSE(sf->cache_enabled);
  const auto remote = lookup("vpac27", "/data/input.nc");
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->mode, IoMode::kRemoteProxy);
  EXPECT_DOUBLE_EQ(remote->access_fraction, 0.1);
}

TEST_F(GnsTest, LookupThroughRpc) {
  add_rule("jagan", "*", sample_mapping());
  auto service = make_service();
  auto found = service->lookup("jagan", "/anything");
  ASSERT_TRUE(found.is_ok());
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ(**found, sample_mapping());

  auto miss = service->lookup("dione", "/anything");
  ASSERT_TRUE(miss.is_ok());
  EXPECT_FALSE(miss->has_value());
}

TEST_F(GnsTest, ClientEditsRules) {
  auto service = make_service();
  MappingRule rule;
  rule.host_pattern = "h";
  rule.path_pattern = "p";
  rule.mapping.mode = IoMode::kRemoteCopy;
  ASSERT_TRUE(service->add_rule(rule).is_ok());
  auto added = service->lookup("h", "p");
  ASSERT_TRUE(added.is_ok()) << added.status();
  ASSERT_TRUE(added->has_value());
  EXPECT_EQ(**added, rule.mapping);

  ASSERT_TRUE(service->remove_rule("h", "p").is_ok());
  auto removed = service->lookup("h", "p");
  ASSERT_TRUE(removed.is_ok()) << removed.status();
  EXPECT_FALSE(removed->has_value());
}

TEST_F(GnsTest, CacheServesRepeatLookups) {
  auto service = make_service();
  ASSERT_TRUE(service->lookup("jagan", "/x").is_ok());
  // Counted server-side: a repeat inside the fresh window sends no RPC.
  obs::Counter& requests =
      obs::MetricsRegistry::global().counter("rpc.server.requests");
  const std::uint64_t before = requests.value();
  ASSERT_TRUE(service->lookup("jagan", "/x").is_ok());
  ASSERT_TRUE(service->lookup("jagan", "/x").is_ok());
  EXPECT_EQ(requests.value(), before);
}

TEST_F(GnsTest, RemapVisibleOnceFreshWindowPasses) {
  auto service = make_service();
  auto before = service->lookup("jagan", "/f");
  ASSERT_TRUE(before.is_ok());
  EXPECT_FALSE(before->has_value());

  // Reconfigure mid-run — the paper's "changing some parameters in the
  // GNS" with no application change — from outside this client.
  add_rule("jagan", "/f", mode_mapping(IoMode::kGridBuffer));
  std::this_thread::sleep_for(ReplicatedNameService::kFreshFor +
                              std::chrono::milliseconds(50));

  auto after = service->lookup("jagan", "/f");
  ASSERT_TRUE(after.is_ok());
  ASSERT_TRUE(after->has_value());
  EXPECT_EQ((*after)->mode, IoMode::kGridBuffer);
}

}  // namespace
}  // namespace griddles::gns
