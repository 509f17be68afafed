// GnsCluster: the multi-master replica set supervisor.
//
// Owns the ReplicaNodes of one deployment and drives the three control
// loops the nodes themselves stay ignorant of:
//
//   - anti-entropy: every `ae_interval` (or on a manual tick) each
//     replica pair exchanges per-shard digests and swaps entries for the
//     divergent shards, so a partitioned or die@gns-dead replica
//     converges after the fault heals (gns.antientropy.{rounds,repaired}
//     make the repair observable). A 1-replica cluster has no pairs and
//     runs no loop; it starts when a live cluster reaches two members;
//   - writes: add_rule/remove_rule coordinate on the shard's first
//     healthy owner (dead owners are skipped by the fault plan exactly
//     like the lookup walk skips them), which replicates onward;
//   - lease-safe reconfiguration: add_replica/remove_replica on a LIVE
//     cluster prime the new owners' shards BEFORE the higher-epoch map
//     is installed, and keep the old owner serving (and its data
//     undropped) for `handoff_lease`, so clients holding either map
//     epoch never observe a missing shard.
//
// Removal = tombstone write: remove_rule versions a tombstone through
// the same coordinate/replicate/anti-entropy path as any write, so
// deletions replicate instead of resurrecting.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/gns/multimaster.h"

namespace griddles::gns {

class GnsCluster {
 public:
  struct Options {
    std::uint32_t num_shards = 8;
    /// Owners per shard; 0 = every replica owns every shard.
    std::uint32_t replication = 0;
    net::WireFormat format = net::WireFormat::kBinary;
    /// Background anti-entropy period while the cluster has two or more
    /// members; zero means manual ticks only (tests drive
    /// run_antientropy_round() themselves).
    std::chrono::milliseconds ae_interval{100};
    /// How long an old owner keeps serving a handed-off shard (covers
    /// clients still routing by the previous map epoch).
    std::chrono::milliseconds handoff_lease{2000};
  };

  GnsCluster(net::Transport& transport, Options options);
  ~GnsCluster();

  GnsCluster(const GnsCluster&) = delete;
  GnsCluster& operator=(const GnsCluster&) = delete;

  /// Adds a member. Before start() this only extends the membership; on
  /// a live cluster it starts the node, primes every shard the new map
  /// assigns it, installs the new epoch everywhere, and starts the
  /// anti-entropy loop if this is the second member.
  Status add_replica(std::string name, net::Endpoint bind);

  /// Removes a member with a lease-safe handoff: surviving owners sync
  /// its shards first, the new epoch installs, and the node keeps
  /// serving stale-map readers until `handoff_lease` expires (it is
  /// reaped on a later anti-entropy tick or at stop()).
  Status remove_replica(const std::string& name);

  /// Starts every node, and the anti-entropy loop when there are two or
  /// more.
  Status start();
  void stop();

  ShardMap map() const;
  std::vector<ReplicaAddress> endpoints() const;
  std::size_t replica_count() const;
  std::shared_ptr<ReplicaNode> node(std::string_view name) const;

  /// Coordinates a write/removal on the shard's first healthy owner.
  Status add_rule(MappingRule rule);
  Status remove_rule(const std::string& host_pattern,
                     const std::string& path_pattern);

  /// One full anti-entropy round over all replica pairs; returns the
  /// number of repaired entries. Also reaps retired nodes and runs
  /// post-handoff shard GC.
  std::uint64_t run_antientropy_round();

  /// True when every replica pair agrees on the digest of every shard
  /// they co-own (checked in-process, unaffected by armed faults).
  bool converged() const;

  /// Runs rounds until converged (at most `max_rounds`); fails typed
  /// when still divergent — e.g. a partition is still armed.
  Status converge(int max_rounds);

 private:
  struct Retiring {
    std::shared_ptr<ReplicaNode> node;
    WallClock::time_point until{};
  };

  void ae_loop();
  /// Starts the anti-entropy thread once the cluster has a pair to sync.
  void start_antientropy();
  void reap_retired(bool force);
  Status put(MappingRule rule, bool tombstone);
  std::vector<std::shared_ptr<ReplicaNode>> snapshot() const;
  /// Installs `map` on every node, retiring included (direct calls; map
  /// distribution is control-plane, not subject to data-path faults).
  void install(const ShardMap& map);

  net::Transport& transport_;
  const Options options_;

  mutable Mutex mu_;
  ShardMap map_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<ReplicaNode>> nodes_ GUARDED_BY(mu_);
  std::vector<Retiring> retiring_ GUARDED_BY(mu_);
  bool started_ GUARDED_BY(mu_) = false;

  Mutex ae_mu_;
  CondVar ae_cv_;
  bool ae_stop_ GUARDED_BY(ae_mu_) = false;
  std::thread ae_thread_ GUARDED_BY(ae_mu_);
};

}  // namespace griddles::gns
