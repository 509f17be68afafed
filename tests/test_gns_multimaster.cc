// Tests for the multi-master GNS: the rendezvous shard map, stamp-ordered
// versions, the partition divergence drill (write both sides, heal,
// anti-entropy converges), a seeded convergence property over random
// writes, faults and repair rounds, and lease-safe runtime replica
// add/remove with zero lost lookups.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "src/common/bytes.h"
#include "src/common/strings.h"
#include "src/fault/plan.h"
#include "src/gns/antientropy.h"
#include "src/gns/multimaster.h"
#include "src/gns/replicated.h"
#include "src/gns/shard_map.h"
#include "src/gns/store.h"
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
// Versioned store: the (priority, writer) stamp orders versions.

MappingRule make_rule(const std::string& host, const std::string& path,
                      IoMode mode) {
  MappingRule rule;
  rule.host_pattern = host;
  rule.path_pattern = path;
  rule.mapping.mode = mode;
  return rule;
}

TEST(ReplicaStoreTest, ConcurrentWritesJoinDeterministically) {
  ReplicaStore a("gns-a");
  ReplicaStore b("gns-b");
  const std::uint32_t shard = 3;

  // The same key written on both sides of a partition.
  const VersionedRule wrote_a = a.coordinate(
      shard, make_rule("jagan", "/d/k.dat", IoMode::kLocal), false);
  const VersionedRule wrote_b = b.coordinate(
      shard, make_rule("jagan", "/d/k.dat", IoMode::kGridBuffer), false);
  ASSERT_EQ(wrote_a.priority, wrote_b.priority);

  // Heal: each side applies the other's entry. Only the side whose own
  // write loses stores anything.
  EXPECT_TRUE(a.apply(shard, wrote_b));
  EXPECT_FALSE(b.apply(shard, wrote_a));

  // Both replicas converge to identical bytes: same winner (priority
  // tie broken by the greater writer id), same stamp.
  EXPECT_EQ(a.digest(shard), b.digest(shard));
  const auto via_a = a.lookup(shard, "jagan", "/d/k.dat");
  const auto via_b = b.lookup(shard, "jagan", "/d/k.dat");
  ASSERT_TRUE(via_a.has_value());
  ASSERT_TRUE(via_b.has_value());
  EXPECT_EQ(via_a->mode, via_b->mode);
  EXPECT_EQ(via_a->mode, IoMode::kGridBuffer);  // "gns-b" > "gns-a"

  // Re-applying after the join is idempotent: anti-entropy can re-send
  // either entry without flapping.
  EXPECT_FALSE(a.apply(shard, wrote_b));
  EXPECT_FALSE(a.apply(shard, wrote_a));
  EXPECT_EQ(a.digest(shard), b.digest(shard));
}

TEST(ReplicaStoreTest, CausallyLaterWriteBeatsGreaterWriterId) {
  ReplicaStore a("gns-a");
  ReplicaStore b("gns-b");
  const std::uint32_t shard = 2;

  // gns-b writes; gns-a sees that write and then overwrites the key.
  const VersionedRule first = b.coordinate(
      shard, make_rule("jagan", "/d/k.dat", IoMode::kLocal), false);
  EXPECT_TRUE(a.apply(shard, first));
  const VersionedRule later = a.coordinate(
      shard, make_rule("jagan", "/d/k.dat", IoMode::kGridBuffer), false);
  EXPECT_GT(later.priority, first.priority);

  // The later write wins on both sides although "gns-a" < "gns-b".
  EXPECT_TRUE(b.apply(shard, later));
  EXPECT_FALSE(a.apply(shard, first));
  EXPECT_FALSE(b.apply(shard, first));
  EXPECT_EQ(a.digest(shard), b.digest(shard));
  for (const ReplicaStore* store : {&a, &b}) {
    const auto found = store->lookup(shard, "jagan", "/d/k.dat");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->mode, IoMode::kGridBuffer);
  }
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
// Replica node: a merge bumps the lookup version only when it stores.

TEST(ReplicaNodeTest, LosingConcurrentEntryLeavesLookupVersion) {
  RealClock clock;
  net::InProcNetwork network(clock);
  const std::unique_ptr<net::Transport> transport = network.transport("gh");
  ReplicaNode node("gns-b", *transport, net::inproc_endpoint("gh", "gns-b"));
  ASSERT_TRUE(node.start().is_ok());
  PeerClient peer(*transport, node.endpoint());
  const std::uint32_t shard = 5;
  const MappingRule rule = make_rule("jagan", "/n/k.dat", IoMode::kLocal);
  node.store().coordinate(
      shard, make_rule("jagan", "/n/k.dat", IoMode::kGridBuffer), false);

  // A concurrent write from a smaller writer id loses to the stored one:
  // nothing changes, so the client caches' flush key stays put.
  const std::uint64_t before = node.version();
  ReplicaStore smaller("gns-a");
  ASSERT_TRUE(
      peer.replicate(shard, smaller.coordinate(shard, rule, false)).is_ok());
  EXPECT_EQ(node.version(), before);
  const auto kept = node.store().lookup(shard, "jagan", "/n/k.dat");
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->mode, IoMode::kGridBuffer);

  // The winning side of a concurrent pair is stored and moves the key.
  ReplicaStore greater("gns-c");
  ASSERT_TRUE(
      peer.replicate(shard, greater.coordinate(shard, rule, false)).is_ok());
  EXPECT_GT(node.version(), before);
  const auto moved = node.store().lookup(shard, "jagan", "/n/k.dat");
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->mode, IoMode::kLocal);
  node.stop();
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
  // Fault healed (disarmed). Anti-entropy must settle the concurrent
  // pair on the larger stamp and converge every digest.
  ASSERT_TRUE(cluster->converge(4).is_ok());
  EXPECT_GE(counter_value("gns.antientropy.rounds"), 1u);
  EXPECT_GE(counter_value("gns.antientropy.repaired"), 1u);

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

TEST_F(GnsClusterTest, FailedLiveAddLeavesMembershipUnchanged) {
  auto cluster = make_cluster(2);
  ASSERT_TRUE(
      cluster->add_rule(make_rule("jagan", "/ghost/k.dat", IoMode::kLocal))
          .is_ok());
  const ShardMap before = cluster->map();
  ASSERT_EQ(before.epoch, 2u);

  // gns-0 holds this endpoint, so the joiner cannot start.
  const Status added =
      cluster->add_replica("gns-2", net::inproc_endpoint("gh", "gns-0"));
  EXPECT_EQ(added.code(), ErrorCode::kAlreadyExists) << added;
  EXPECT_EQ(cluster->replica_count(), 2u);
  EXPECT_EQ(cluster->map(), before);
  EXPECT_EQ(cluster->node("gns-2"), nullptr);
  EXPECT_TRUE(cluster->converge(3).is_ok());
}

TEST_F(GnsClusterTest, StaleEpochClientWriteLandsOnNewOwner) {
  GnsCluster::Options options;
  options.num_shards = 8;
  options.replication = 1;  // one owner per shard: the join moves some
  auto cluster = make_cluster(2, options);
  auto service = make_service(*cluster);
  ASSERT_TRUE(service->lookup("jagan", "/stale/warm.dat").is_ok());
  const std::uint64_t old_epoch = cluster->map().epoch;
  ASSERT_EQ(service->map_epoch(), old_epoch);

  ASSERT_TRUE(
      cluster->add_replica("gns-2", net::inproc_endpoint("gh", "gns-2"))
          .is_ok());
  const ShardMap new_map = cluster->map();
  std::string path;
  for (int i = 0; path.empty(); ++i) {
    const std::string candidate = strings::cat("/stale/f", i, ".dat");
    if (new_map.owners(new_map.shard_of("jagan", candidate)).front() ==
        "gns-2") {
      path = candidate;
    }
  }

  // The client still routes by the old epoch, which gives the key's
  // shard to an old owner; the write must still land on gns-2.
  ASSERT_EQ(service->map_epoch(), old_epoch);
  ASSERT_TRUE(
      service->add_rule(make_rule("jagan", path, IoMode::kGridBuffer))
          .is_ok());
  const auto joiner = cluster->node("gns-2");
  ASSERT_NE(joiner, nullptr);
  const auto stored = joiner->store().lookup(
      new_map.shard_of("jagan", path), "jagan", path);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->mode, IoMode::kGridBuffer);

  auto fresh = make_service(*cluster);
  auto found = fresh->lookup("jagan", path);
  ASSERT_TRUE(found.is_ok()) << found.status();
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->mode, IoMode::kGridBuffer);
}

TEST_F(GnsClusterTest, ShardHandedBackWithinItsLeaseIsKept) {
  GnsCluster::Options options;
  options.num_shards = 8;
  options.replication = 1;  // the old owner holds the only copy
  options.handoff_lease = std::chrono::milliseconds(20);
  auto cluster = make_cluster(2, options);
  const ShardMap before = cluster->map();
  ShardMap joined = before;
  joined.replicas.push_back("gns-2");
  std::string path;
  for (int i = 0; path.empty(); ++i) {
    const std::string candidate = strings::cat("/back/f", i, ".dat");
    if (joined.owners(joined.shard_of("jagan", candidate)).front() ==
        "gns-2") {
      path = candidate;
    }
  }
  const std::uint32_t shard = before.shard_of("jagan", path);
  const std::string owner = before.owners(shard).front();
  ASSERT_TRUE(
      cluster->add_rule(make_rule("jagan", path, IoMode::kLocal)).is_ok());

  // gns-2 takes the shard and leaves again inside the lease, so the
  // shard is back with its old owner when that owner's drop falls due.
  ASSERT_TRUE(
      cluster->add_replica("gns-2", net::inproc_endpoint("gh", "gns-2"))
          .is_ok());
  ASSERT_TRUE(cluster->remove_replica("gns-2").is_ok());
  ASSERT_EQ(cluster->map().owners(shard).front(), owner);
  std::this_thread::sleep_for(options.handoff_lease +
                              std::chrono::milliseconds(30));
  cluster->run_antientropy_round();
  EXPECT_TRUE(
      cluster->node(owner)->store().lookup(shard, "jagan", path).has_value());
  auto found = make_service(*cluster)->lookup("jagan", path);
  ASSERT_TRUE(found.is_ok()) << found.status();
  EXPECT_TRUE(found->has_value());
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

// ---------------------------------------------------------------------
// Seeded convergence property: random histories of writes, removals,
// fault plans and anti-entropy rounds across three replicas.

/// A rule key, plus one (host, path) the rule matches.
struct PropertyKey {
  const char* host;
  const char* path;
  const char* probe_host;
  const char* probe_path;
};

constexpr PropertyKey kPropertyKeys[] = {
    {"jagan", "/prop/a.dat", "jagan", "/prop/a.dat"},
    {"jagan", "/prop/b.dat", "jagan", "/prop/b.dat"},
    {"dione", "/prop/a.dat", "dione", "/prop/a.dat"},
    {"jagan", "*.dat", "jagan", "/prop/c.dat"},
    {"*", "/prop/a.dat", "freak", "/prop/a.dat"},
    {"d?one", "/prop/*", "dione", "/prop/b.dat"},
};

class GnsConvergenceTest : public GnsClusterTest {
 protected:
  /// The fault plan of one step: none, every sync link severed, one
  /// replica pair severed, or one replica dead.
  static std::string draw_plan(std::mt19937& rng) {
    const unsigned kind = rng() % 4;
    const unsigned a = rng() % 3;
    const unsigned b = (a + 1 + rng() % 2) % 3;
    switch (kind) {
      case 0:
        return "";
      case 1:
        return "partition@gns:*";
      case 2:
        return strings::cat("partition@gns:",
                            sync_pair_key(strings::cat("gns-", a),
                                          strings::cat("gns-", b)));
      default:
        return strings::cat("die@gns:gns-", a);
    }
  }

  static std::optional<FileMapping> resolve(const ReplicaNode& node,
                                            const ShardMap& map,
                                            const PropertyKey& key) {
    return node.store().lookup(map.shard_of(key.probe_host, key.probe_path),
                               key.probe_host, key.probe_path);
  }

  /// The winning version of every key: mode, value, writer, tombstone
  /// and priority. Printed per seed so that two builds can be compared.
  static std::string fingerprint(const ReplicaNode& node,
                                 const ShardMap& map) {
    std::string text;
    for (const PropertyKey& key : kPropertyKeys) {
      for (const VersionedRule& entry :
           node.store().entries(map.shard_of_rule(key.host, key.path))) {
        if (entry.rule.host_pattern != key.host ||
            entry.rule.path_pattern != key.path) {
          continue;
        }
        text += strings::cat(key.host, "|", key.path, "=",
                             io_mode_name(entry.rule.mapping.mode), ",",
                             entry.rule.mapping.local_path, ",",
                             entry.writer, ",",
                             entry.tombstone ? "removed" : "live", ",",
                             entry.priority, ";");
      }
    }
    return text;
  }
};

TEST_F(GnsConvergenceTest, SeededHistoriesConvergeToOneState) {
  constexpr IoMode kModes[] = {IoMode::kLocal, IoMode::kRemoteProxy,
                               IoMode::kGridBuffer};
  for (unsigned seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(strings::cat("seed ", seed));
    std::mt19937 rng(seed);
    auto cluster = make_cluster(3);
    int written = 0;
    for (int step = 0; step < 40; ++step) {
      const unsigned action = rng() % 8;  // 0-1 round, 2-6 add, 7 remove
      const PropertyKey& key = kPropertyKeys[rng() % std::size(kPropertyKeys)];
      const IoMode mode = kModes[rng() % std::size(kModes)];
      const std::string spec = draw_plan(rng);
      std::optional<ArmedPlan> armed;
      if (!spec.empty()) armed.emplace(spec);
      if (action < 2) {
        cluster->run_antientropy_round();
        continue;
      }
      MappingRule rule = make_rule(key.host, key.path, mode);
      rule.mapping.local_path = strings::cat("/v", step);
      const Status status = action < 7
                                ? cluster->add_rule(rule)
                                : cluster->remove_rule(key.host, key.path);
      if (status.is_ok()) {
        ++written;
      } else {
        EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status;
      }
    }
    fault::disarm();
    ASSERT_TRUE(cluster->converge(8).is_ok());

    // One state: every replica holds the same entries in every shard and
    // resolves every probe to the same mapping.
    const ShardMap map = cluster->map();
    const auto first = cluster->node("gns-0");
    const std::vector<ReplicaAddress> replicas = cluster->endpoints();
    for (const ReplicaAddress& replica : replicas) {
      const auto node = cluster->node(replica.name);
      for (const std::uint32_t shard : map.shards_of("gns-0")) {
        EXPECT_TRUE(node->store().entries(shard) ==
                    first->store().entries(shard))
            << replica.name << " shard " << shard;
      }
      for (const PropertyKey& key : kPropertyKeys) {
        EXPECT_TRUE(resolve(*node, map, key) == resolve(*first, map, key))
            << replica.name << " " << key.host << " " << key.path;
      }
    }
    const std::string state = fingerprint(*first, map);
    std::printf("convergence seed %u written %d fingerprint %016llx\n", seed,
                written,
                static_cast<unsigned long long>(fnv1a(as_bytes_view(state))));

    // A write issued after convergence beats every older version on every
    // replica, even when gns-0, the smallest writer id, coordinates it.
    for (const PropertyKey& key : kPropertyKeys) {
      MappingRule rule = make_rule(key.host, key.path, IoMode::kReplicated);
      rule.mapping.local_path = strings::cat("/final/", key.host, key.path);
      ASSERT_TRUE(first->put(rule, /*tombstone=*/false).is_ok());
      for (const ReplicaAddress& replica : replicas) {
        const auto found = resolve(*cluster->node(replica.name), map, key);
        ASSERT_TRUE(found.has_value()) << replica.name;
        EXPECT_TRUE(*found == rule.mapping)
            << replica.name << " " << key.host << " " << key.path;
      }
    }
    cluster->stop();
  }
}

}  // namespace
}  // namespace griddles::gns
