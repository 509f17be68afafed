// Tests for the multi-master GNS: vector clocks, the rendezvous shard
// map, deterministic conflict resolution, the partition divergence
// drill (write both sides, heal, anti-entropy converges), and
// lease-safe runtime replica add/remove with zero lost lookups.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "src/common/strings.h"
#include "src/fault/plan.h"
#include "src/gns/antientropy.h"
#include "src/gns/multimaster.h"
#include "src/gns/replicated.h"
#include "src/gns/shard_map.h"
#include "src/gns/store.h"
#include "src/gns/vclock.h"
#include "src/net/inproc.h"
#include "src/obs/metrics.h"

namespace griddles::gns {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Arms a plan for the test body and disarms on scope exit.
struct ArmedPlan {
  std::shared_ptr<fault::Plan> plan;

  explicit ArmedPlan(const std::string& spec) {
    auto parsed = fault::Plan::parse(spec);
    EXPECT_TRUE(parsed.is_ok()) << parsed.status();
    if (parsed.is_ok()) {
      plan = *parsed;
      fault::arm(plan, nullptr);
    }
  }
  ~ArmedPlan() { fault::disarm(); }
};

// ---------------------------------------------------------------------
// Vector clocks.

TEST(VClockTest, BumpJoinAndCompare) {
  VClock a;
  EXPECT_TRUE(a.empty());
  a.bump("n0");
  a.bump("n0");
  EXPECT_EQ(a.count("n0"), 2u);
  EXPECT_EQ(a.count("n1"), 0u);

  VClock b = a;
  EXPECT_EQ(a.compare(b), VOrder::kEqual);
  b.bump("n0");
  EXPECT_EQ(a.compare(b), VOrder::kBefore);
  EXPECT_EQ(b.compare(a), VOrder::kAfter);

  // Writes coordinated on different replicas during a partition
  // dominate in neither direction: divergence is detectable.
  VClock c = a;
  c.bump("n1");
  EXPECT_EQ(b.compare(c), VOrder::kConcurrent);
  EXPECT_EQ(c.compare(b), VOrder::kConcurrent);

  // The join is a semilattice: commutative and absorbing both sides.
  VClock joined_bc = b;
  joined_bc.join(c);
  VClock joined_cb = c;
  joined_cb.join(b);
  EXPECT_EQ(joined_bc, joined_cb);
  EXPECT_EQ(joined_bc.compare(b), VOrder::kAfter);
  EXPECT_EQ(joined_bc.compare(c), VOrder::kAfter);
  EXPECT_EQ(joined_bc.count("n0"), 3u);
  EXPECT_EQ(joined_bc.count("n1"), 1u);
  EXPECT_EQ(joined_bc.height(), 4u);
}

TEST(VClockTest, EncodeDecodeRoundTrips) {
  VClock clock;
  clock.bump("gns-0");
  clock.bump("gns-2");
  clock.bump("gns-2");
  xdr::Encoder enc;
  clock.encode(enc);
  xdr::Decoder dec(enc.buffer());
  auto decoded = VClock::decode(dec);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status();
  EXPECT_EQ(*decoded, clock);
  EXPECT_EQ(clock.to_string(), "{gns-0:1,gns-2:2}");
}

// ---------------------------------------------------------------------
// Shard map.

ShardMap three_node_map() {
  ShardMap map;
  map.epoch = 1;
  map.num_shards = 8;
  map.replication = 2;
  map.replicas = {"gns-0", "gns-1", "gns-2"};
  return map;
}

TEST(ShardMapTest, KeysHashDeterministicallyAndGlobsBroadcast) {
  const ShardMap map = three_node_map();
  const std::uint32_t shard = map.shard_of("jagan", "/work/a.dat");
  EXPECT_EQ(shard, map.shard_of("jagan", "/work/a.dat"));
  EXPECT_LT(shard, map.num_shards);
  EXPECT_EQ(map.shard_of_rule("jagan", "/work/a.dat"), shard);
  // Any glob in either pattern routes the rule to the broadcast shard,
  // which every replica owns.
  EXPECT_EQ(map.shard_of_rule("jagan", "*.dat"), kGlobalShard);
  EXPECT_EQ(map.shard_of_rule("j?gan", "/work/a.dat"), kGlobalShard);
  EXPECT_EQ(map.owners(kGlobalShard).size(), 3u);
}

TEST(ShardMapTest, RendezvousRemapsOnlyTheLeaversShards) {
  const ShardMap before = three_node_map();
  ShardMap after = before;
  after.epoch = 2;
  after.replicas = {"gns-0", "gns-2"};  // gns-1 left

  for (std::uint32_t shard = 0; shard < before.num_shards; ++shard) {
    const std::vector<std::string> old_owners = before.owners(shard);
    EXPECT_EQ(old_owners.size(), 2u);
    // Survivors that owned the shard keep it (the consistent-hash
    // property): only slots the leaver held get reassigned.
    for (const std::string& owner : old_owners) {
      if (owner != "gns-1") {
        EXPECT_TRUE(after.owns(owner, shard));
      }
    }
    EXPECT_FALSE(after.owns("gns-1", shard));
  }
}

TEST(ShardMapTest, ShardsOfPartitionsTheKeyspace) {
  const ShardMap map = three_node_map();
  std::set<std::uint32_t> covered;
  for (const std::string& replica : map.replicas) {
    for (const std::uint32_t shard : map.shards_of(replica)) {
      covered.insert(shard);
    }
  }
  // Every shard (and the broadcast shard) has at least one owner.
  EXPECT_EQ(covered.size(), map.num_shards + 1u);
  EXPECT_TRUE(covered.contains(kGlobalShard));
  EXPECT_EQ(map.effective_replication(), 2u);
}

// ---------------------------------------------------------------------
// Versioned store: deterministic conflict join.

MappingRule make_rule(const std::string& host, const std::string& path,
                      IoMode mode) {
  MappingRule rule;
  rule.host_pattern = host;
  rule.path_pattern = path;
  rule.mapping.mode = mode;
  return rule;
}

TEST(ReplicaStoreTest, ConcurrentWritesJoinDeterministically) {
  obs::MetricsRegistry::global().reset();
  ReplicaStore a("gns-a");
  ReplicaStore b("gns-b");
  const std::uint32_t shard = 3;

  // The same key written on both sides of a partition.
  const VersionedRule wrote_a = a.coordinate(
      shard, make_rule("jagan", "/d/k.dat", IoMode::kLocal), false);
  const VersionedRule wrote_b = b.coordinate(
      shard, make_rule("jagan", "/d/k.dat", IoMode::kGridBuffer), false);
  EXPECT_EQ(wrote_a.version.compare(wrote_b.version), VOrder::kConcurrent);

  // Heal: each side applies the other's entry — in opposite orders.
  EXPECT_EQ(a.apply(shard, wrote_b), ReplicaStore::Applied::kConflict);
  EXPECT_EQ(b.apply(shard, wrote_a), ReplicaStore::Applied::kConflict);
  EXPECT_EQ(counter_value("gns.conflict.detected"), 2u);
  EXPECT_EQ(counter_value("gns.conflict.resolved"), 2u);

  // Both replicas converge to identical bytes: same winner (priority
  // tie broken by the greater writer id), same joined version.
  EXPECT_EQ(a.digest(shard), b.digest(shard));
  const auto via_a = a.lookup(shard, "jagan", "/d/k.dat");
  const auto via_b = b.lookup(shard, "jagan", "/d/k.dat");
  ASSERT_TRUE(via_a.has_value());
  ASSERT_TRUE(via_b.has_value());
  EXPECT_EQ(via_a->mode, via_b->mode);
  EXPECT_EQ(via_a->mode, IoMode::kGridBuffer);  // "gns-b" > "gns-a"

  // Re-applying after the join is idempotent (kStale/kEqual, no new
  // conflict): anti-entropy can re-send without flapping.
  EXPECT_NE(a.apply(shard, wrote_b), ReplicaStore::Applied::kConflict);
  EXPECT_EQ(counter_value("gns.conflict.detected"), 2u);
}

TEST(ReplicaStoreTest, TombstoneShadowsTheRule) {
  ReplicaStore store("gns-a");
  const std::uint32_t shard = 1;
  store.coordinate(shard, make_rule("h", "/p", IoMode::kLocal), false);
  EXPECT_TRUE(store.lookup(shard, "h", "/p").has_value());
  EXPECT_EQ(store.live_count(shard), 1u);
  store.coordinate(shard, make_rule("h", "/p", IoMode::kLocal), true);
  EXPECT_FALSE(store.lookup(shard, "h", "/p").has_value());
  EXPECT_EQ(store.live_count(shard), 0u);
}

// ---------------------------------------------------------------------
// Cluster-level: divergence drill and runtime reconfiguration.

class GnsClusterTest : public ::testing::Test {
 protected:
  GnsClusterTest() : network_(clock_), transport_(network_.transport("gh")) {
    obs::MetricsRegistry::global().reset();
  }
  ~GnsClusterTest() override { fault::disarm(); }

  /// A started cluster of `n` replicas with manual anti-entropy ticks.
  std::unique_ptr<GnsCluster> make_cluster(int n,
                                           GnsCluster::Options options) {
    options.ae_interval = std::chrono::milliseconds(0);
    auto cluster = std::make_unique<GnsCluster>(*transport_, options);
    for (int i = 0; i < n; ++i) {
      const std::string name = strings::cat("gns-", i);
      EXPECT_TRUE(
          cluster
              ->add_replica(name, net::inproc_endpoint("gh", name))
              .is_ok());
    }
    EXPECT_TRUE(cluster->start().is_ok());
    return cluster;
  }
  std::unique_ptr<GnsCluster> make_cluster(int n) {
    return make_cluster(n, GnsCluster::Options{});
  }

  std::unique_ptr<ReplicatedNameService> make_service(
      GnsCluster& cluster, ReplicatedNameService::Options options = {}) {
    auto service =
        std::make_unique<ReplicatedNameService>(*transport_, options);
    for (const ReplicaAddress& replica : cluster.endpoints()) {
      service->add_replica(replica.name, replica.endpoint);
    }
    return service;
  }

  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> transport_;
};

TEST_F(GnsClusterTest, WritesReplicateAndLookupsResolve) {
  auto cluster = make_cluster(3);
  ASSERT_TRUE(
      cluster->add_rule(make_rule("jagan", "/w/a.dat", IoMode::kLocal))
          .is_ok());
  ASSERT_TRUE(
      cluster->add_rule(make_rule("jagan", "*.buf", IoMode::kGridBuffer))
          .is_ok());
  EXPECT_TRUE(cluster->converged());

  auto service = make_service(*cluster);
  auto exact = service->lookup("jagan", "/w/a.dat");
  ASSERT_TRUE(exact.is_ok()) << exact.status();
  ASSERT_TRUE(exact->has_value());
  EXPECT_EQ((*exact)->mode, IoMode::kLocal);
  // Glob rules live in the broadcast shard and match from any replica.
  auto globbed = service->lookup("jagan", "/other/x.buf");
  ASSERT_TRUE(globbed.is_ok()) << globbed.status();
  ASSERT_TRUE(globbed->has_value());
  EXPECT_EQ((*globbed)->mode, IoMode::kGridBuffer);
  EXPECT_GT(service->map_epoch(), 0u);

  // Tombstones replicate too: the removal is visible immediately.
  ASSERT_TRUE(service->remove_rule("jagan", "/w/a.dat").is_ok());
  auto removed = service->lookup("jagan", "/w/a.dat");
  ASSERT_TRUE(removed.is_ok()) << removed.status();
  EXPECT_FALSE(removed->has_value());
}

TEST_F(GnsClusterTest, DivergenceDrillHealsDeterministically) {
  auto cluster = make_cluster(3);
  const std::string host = "jagan";
  const std::string path = "/drill/k.dat";
  const ShardMap map = cluster->map();
  const std::vector<std::string> owners =
      map.owners(map.shard_of_rule(host, path));
  ASSERT_EQ(owners.size(), 3u);  // replication=0: everyone owns it
  const std::string& primary = owners[0];
  const std::string& secondary = owners[1];

  {
    // Phase 1: all sync links severed; the write lands on the primary
    // owner only (replication to co-owners fails and is tolerated).
    ArmedPlan part("partition@gns:*");
    ASSERT_TRUE(
        cluster->add_rule(make_rule(host, path, IoMode::kLocal)).is_ok());
    EXPECT_GE(counter_value("gns.replicate.failed"), 2u);
    EXPECT_FALSE(cluster->converged());
  }
  {
    // Phase 2: the primary is also dead; the same key written again
    // coordinates on the next owner — a genuinely concurrent version.
    ArmedPlan part(strings::cat("partition@gns:*;die@gns:", primary));
    ASSERT_TRUE(
        cluster->add_rule(make_rule(host, path, IoMode::kGridBuffer))
            .is_ok());
  }
  // Fault healed (disarmed). Anti-entropy must detect the concurrent
  // pair, join it deterministically, and converge every digest.
  ASSERT_TRUE(cluster->converge(4).is_ok());
  EXPECT_GE(counter_value("gns.antientropy.rounds"), 1u);
  EXPECT_GE(counter_value("gns.antientropy.repaired"), 1u);
  EXPECT_GE(counter_value("gns.conflict.detected"), 1u);
  EXPECT_GE(counter_value("gns.conflict.resolved"), 1u);

  // Both writes had Lamport priority 1 on their coordinator, so the
  // deterministic tie-break is the greater writer id.
  const std::string winner = std::max(primary, secondary);
  const IoMode expect_mode =
      winner == primary ? IoMode::kLocal : IoMode::kGridBuffer;
  auto service = make_service(*cluster);
  for (const ReplicaAddress& replica : cluster->endpoints()) {
    const auto node = cluster->node(replica.name);
    ASSERT_NE(node, nullptr);
    const auto direct =
        node->store().lookup(map.shard_of(host, path), host, path);
    ASSERT_TRUE(direct.has_value()) << replica.name;
    EXPECT_EQ(direct->mode, expect_mode) << replica.name;
  }
  auto resolved = service->lookup(host, path);
  ASSERT_TRUE(resolved.is_ok()) << resolved.status();
  ASSERT_TRUE(resolved->has_value());
  EXPECT_EQ((*resolved)->mode, expect_mode);
}

TEST_F(GnsClusterTest, PartitionedPairStaysDivergentUntilHeal) {
  auto cluster = make_cluster(2);
  ArmedPlan part("partition@gns:gns-0-gns-1");
  ASSERT_TRUE(
      cluster->add_rule(make_rule("h", "/p/q.dat", IoMode::kLocal))
          .is_ok());
  // Rounds run while the pair is severed repair nothing.
  EXPECT_EQ(cluster->run_antientropy_round(), 0u);
  EXPECT_FALSE(cluster->converged());
  EXPECT_GE(counter_value("fault.injected.partition"), 1u);
  fault::disarm();
  EXPECT_GE(cluster->run_antientropy_round(), 1u);
  EXPECT_TRUE(cluster->converged());
}

TEST_F(GnsClusterTest, ReplicaAddAndRemoveLoseNoLookups) {
  GnsCluster::Options options;
  options.num_shards = 8;
  options.replication = 2;  // real handoffs: shards move between owners
  options.handoff_lease = std::chrono::milliseconds(1500);
  auto cluster = make_cluster(3, options);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cluster
                    ->add_rule(make_rule(
                        "jagan", strings::cat("/cfg/f", i, ".dat"),
                        IoMode::kLocal))
                    .is_ok());
  }

  ReplicatedNameService::Options service_options;
  auto service = make_service(*cluster, service_options);

  std::atomic<bool> stop{false};
  std::atomic<int> lookups{0};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string path = strings::cat("/cfg/f", i % 16, ".dat");
      auto result = service->lookup("jagan", path);
      if (!result.is_ok() || !result->has_value() ||
          (*result)->mode != IoMode::kLocal) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      lookups.fetch_add(1, std::memory_order_relaxed);
      ++i;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Live reconfiguration under the reader: grow, then shrink. A reply
  // from a node on the new epoch makes the client refetch the map and
  // re-walk; within the handoff lease (1500ms) even stale-map reads
  // still land on an owner that serves the shard.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(
      cluster->add_replica("gns-3", net::inproc_endpoint("gh", "gns-3"))
          .is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(cluster->remove_replica("gns-0").is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_GE(lookups.load(), 50);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cluster->replica_count(), 3u);
  EXPECT_EQ(cluster->map().epoch, 5u);  // 3 adds + 1 add + 1 remove

  // New writes coordinate under the new membership and still resolve.
  ASSERT_TRUE(
      cluster->add_rule(make_rule("jagan", "/cfg/late.dat", IoMode::kLocal))
          .is_ok());
  auto late = service->lookup("jagan", "/cfg/late.dat");
  ASSERT_TRUE(late.is_ok()) << late.status();
  EXPECT_TRUE(late->has_value());
}

TEST_F(GnsClusterTest, StaleEpochClientRewalksAfterOwnerDropsShard) {
  GnsCluster::Options options;
  options.num_shards = 8;
  options.replication = 1;  // one owner per shard: a handoff moves it
  options.handoff_lease = std::chrono::milliseconds(20);
  auto cluster = make_cluster(2, options);
  auto service = make_service(*cluster);
  ASSERT_TRUE(service->lookup("jagan", "/epoch/warm.dat").is_ok());
  const ShardMap old_map = cluster->map();
  ASSERT_EQ(service->map_epoch(), old_map.epoch);

  // A key whose shard the joining gns-2 takes over from its old owner.
  ShardMap new_map = old_map;
  new_map.replicas.push_back("gns-2");
  new_map.epoch = old_map.epoch + 1;
  std::string path;
  for (int i = 0; path.empty(); ++i) {
    const std::string candidate = strings::cat("/epoch/f", i, ".dat");
    if (new_map.owners(new_map.shard_of("jagan", candidate)).front() ==
        "gns-2") {
      path = candidate;
    }
  }
  const std::uint32_t shard = old_map.shard_of("jagan", path);
  const std::string old_owner = old_map.owners(shard).front();
  ASSERT_TRUE(
      cluster->add_rule(make_rule("jagan", path, IoMode::kGridBuffer))
          .is_ok());
  ASSERT_TRUE(
      cluster->add_replica("gns-2", net::inproc_endpoint("gh", "gns-2"))
          .is_ok());
  ASSERT_EQ(cluster->map(), new_map);

  // Past the handoff lease the next tick drops the shard on its old
  // owner, which now answers "no mapping" for the key.
  std::this_thread::sleep_for(options.handoff_lease +
                              std::chrono::milliseconds(30));
  cluster->run_antientropy_round();
  EXPECT_FALSE(
      cluster->node(old_owner)->store().lookup(shard, "jagan", path));

  // The client still routes by the old epoch, so it asks the old owner
  // first. Its reply carries the new epoch: the client must refetch the
  // map and re-walk to gns-2 rather than accept "no mapping".
  EXPECT_EQ(service->map_epoch(), old_map.epoch);
  auto found = service->lookup("jagan", path);
  ASSERT_TRUE(found.is_ok()) << found.status();
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->mode, IoMode::kGridBuffer);
  EXPECT_EQ(service->map_epoch(), new_map.epoch);
}

TEST_F(GnsClusterTest, AntiEntropyLoopRunsOnlyWithAPairToSync) {
  // Default options: a 100 ms background anti-entropy period.
  GnsCluster cluster(*transport_, GnsCluster::Options{});
  ASSERT_TRUE(
      cluster.add_replica("solo-0", net::inproc_endpoint("gh", "solo-0"))
          .is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(counter_value("gns.antientropy.rounds"), 0u);

  const auto rounds_rise = [](std::uint64_t from) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (counter_value("gns.antientropy.rounds") == from &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return counter_value("gns.antientropy.rounds") > from;
  };

  // Growing the live cluster to two members starts the loop.
  ASSERT_TRUE(
      cluster.add_replica("solo-1", net::inproc_endpoint("gh", "solo-1"))
          .is_ok());
  EXPECT_TRUE(rounds_rise(0));
  cluster.stop();

  // So does starting a cluster that already has two.
  GnsCluster pair(*transport_, GnsCluster::Options{});
  for (const char* name : {"pair-0", "pair-1"}) {
    ASSERT_TRUE(
        pair.add_replica(name, net::inproc_endpoint("gh", name)).is_ok());
  }
  const std::uint64_t before = counter_value("gns.antientropy.rounds");
  ASSERT_TRUE(pair.start().is_ok());
  EXPECT_TRUE(rounds_rise(before));
  pair.stop();
}

TEST_F(GnsClusterTest, WriteThroughInvalidationClosesStaleReadWindow) {
  auto cluster = make_cluster(3);
  ASSERT_TRUE(
      cluster->add_rule(make_rule("jagan", "/inv/k.dat", IoMode::kLocal))
          .is_ok());

  // Without write-through invalidation the remap below would stay
  // invisible while the cached answer is fresh.
  auto service = make_service(*cluster);
  auto before = service->lookup("jagan", "/inv/k.dat");
  ASSERT_TRUE(before.is_ok()) << before.status();
  ASSERT_TRUE(before->has_value());
  EXPECT_EQ((*before)->mode, IoMode::kLocal);
  EXPECT_EQ(service->cache_size(), 1u);

  ASSERT_TRUE(
      service->add_rule(make_rule("jagan", "/inv/k.dat",
                                  IoMode::kGridBuffer))
          .is_ok());
  auto after = service->lookup("jagan", "/inv/k.dat");
  ASSERT_TRUE(after.is_ok()) << after.status();
  ASSERT_TRUE(after->has_value());
  EXPECT_EQ((*after)->mode, IoMode::kGridBuffer);

  ASSERT_TRUE(service->remove_rule("jagan", "/inv/k.dat").is_ok());
  auto removed = service->lookup("jagan", "/inv/k.dat");
  ASSERT_TRUE(removed.is_ok()) << removed.status();
  EXPECT_FALSE(removed->has_value());
}

}  // namespace
}  // namespace griddles::gns
