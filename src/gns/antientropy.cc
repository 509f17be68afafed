#include "src/gns/antientropy.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace griddles::gns {

namespace {
/// Handles cached once; see src/obs/metrics.h naming scheme.
struct AntiEntropyMetrics {
  obs::Counter& rounds;  // full pairwise rounds driven by the cluster

  static AntiEntropyMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static AntiEntropyMetrics metrics{
        registry.counter("gns.antientropy.rounds"),
    };
    return metrics;
  }
};

/// The shards both `a` and `b` own under `map`: what a pair compares.
std::vector<std::uint32_t> shared_shards(const ShardMap& map,
                                         const std::string& a,
                                         const std::string& b) {
  std::vector<std::uint32_t> shards = map.shards_of(a);
  std::erase_if(shards,
                [&](std::uint32_t shard) { return !map.owns(b, shard); });
  return shards;
}

/// Handoff priming: pulls `shard` into `node` from the first of
/// `sources` that answers (not counted as anti-entropy repairs). A
/// partitioned source just means the shard arrives later via
/// anti-entropy.
void prime(ReplicaNode& node, std::uint32_t shard,
           const std::vector<std::string>& sources) {
  for (const std::string& source : sources) {
    if (source != node.name() &&
        node.sync_with(source, {shard}, /*count_repair=*/false).is_ok()) {
      return;
    }
  }
}
}  // namespace

GnsCluster::GnsCluster(net::Transport& transport, Options options)
    : transport_(transport), options_(options) {
  MutexLock lock(mu_);
  map_.num_shards = std::max<std::uint32_t>(1, options_.num_shards);
  map_.replication = options_.replication;
}

GnsCluster::~GnsCluster() { stop(); }

ShardMap GnsCluster::map() const {
  MutexLock lock(mu_);
  return map_;
}

std::vector<ReplicaAddress> GnsCluster::endpoints() const {
  std::vector<ReplicaAddress> result;
  MutexLock lock(mu_);
  result.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    result.push_back({node->name(), node->endpoint()});
  }
  return result;
}

std::size_t GnsCluster::replica_count() const {
  MutexLock lock(mu_);
  return nodes_.size();
}

std::shared_ptr<ReplicaNode> GnsCluster::node(std::string_view name) const {
  MutexLock lock(mu_);
  for (const auto& node : nodes_) {
    if (node->name() == name) return node;
  }
  return nullptr;
}

std::vector<std::shared_ptr<ReplicaNode>> GnsCluster::snapshot() const {
  MutexLock lock(mu_);
  return nodes_;
}

void GnsCluster::install(const ShardMap& map) {
  std::vector<std::shared_ptr<ReplicaNode>> all;
  {
    MutexLock lock(mu_);
    all = nodes_;
    for (const Lease& lease : leases_) {
      if (!lease.shard) all.push_back(lease.node);
    }
  }
  const std::vector<ReplicaAddress> roster = endpoints();
  for (const auto& node : all) node->install(map, roster);
}

Status GnsCluster::add_replica(std::string name, net::Endpoint bind) {
  auto joining =
      std::make_shared<ReplicaNode>(name, transport_, std::move(bind));
  bool live;
  {
    MutexLock lock(mu_);
    live = started_;
  }
  // A live cluster starts the joiner before membership changes, so a
  // joiner that cannot bind leaves no trace.
  if (live) GL_RETURN_IF_ERROR(joining->start());
  ShardMap old_map;
  ShardMap new_map;
  std::vector<std::shared_ptr<ReplicaNode>> peers;
  {
    MutexLock lock(mu_);
    for (const auto& node : nodes_) {
      if (node->name() == name) {
        return already_exists(strings::cat("gns replica ", name));
      }
    }
    old_map = map_;
    new_map = old_map;
    new_map.replicas.push_back(name);
    std::sort(new_map.replicas.begin(), new_map.replicas.end());
    new_map.epoch = old_map.epoch + 1;
    peers = nodes_;
    nodes_.push_back(joining);
    map_ = new_map;
  }
  if (!live) return Status::ok();  // start() installs the map
  // The joiner learns the new map and its sources, then primes every
  // shard the new epoch assigns it BEFORE any other node serves that
  // epoch, so no client can route to it unprimed.
  joining->install(new_map, endpoints());
  for (const std::uint32_t shard : new_map.shards_of(name)) {
    prime(*joining, shard, old_map.owners(shard));
  }
  install(new_map);
  start_antientropy();
  // Old owners that lost a shard serve stale-map readers through the
  // handoff lease; a later anti-entropy tick drops the bucket.
  MutexLock lock(mu_);
  const WallClock::time_point until =
      WallClock::now() + options_.handoff_lease;
  for (const auto& peer : peers) {
    for (const std::uint32_t shard : old_map.shards_of(peer->name())) {
      if (!new_map.owns(peer->name(), shard)) {
        leases_.push_back({peer, shard, until});
      }
    }
  }
  return Status::ok();
}

Status GnsCluster::remove_replica(const std::string& name) {
  std::shared_ptr<ReplicaNode> leaving;  // released outside mu_
  ShardMap old_map;
  ShardMap new_map;
  std::vector<std::shared_ptr<ReplicaNode>> survivors;
  {
    MutexLock lock(mu_);
    auto it = std::find_if(nodes_.begin(), nodes_.end(),
                           [&](const auto& node) {
                             return node->name() == name;
                           });
    if (it == nodes_.end()) {
      return not_found(strings::cat("gns replica ", name));
    }
    if (nodes_.size() == 1) {
      return failed_precondition("gns: cannot remove the last replica");
    }
    // A live leaver keeps serving stale-map readers through the handoff
    // lease; an idle one is dropped with its last reference.
    leaving = *it;
    if (started_) {
      leases_.push_back({leaving, std::nullopt,
                         WallClock::now() + options_.handoff_lease});
    }
    nodes_.erase(it);
    old_map = map_;
    new_map = old_map;
    new_map.replicas.erase(std::remove(new_map.replicas.begin(),
                                       new_map.replicas.end(), name),
                           new_map.replicas.end());
    new_map.epoch = old_map.epoch + 1;
    map_ = new_map;
    survivors = nodes_;
    if (!started_) return Status::ok();  // start() installs the map
  }
  // Every shard the leaver owned gains owners under the new epoch; sync
  // them (from the leaver first, any surviving old owner as the
  // fallback) before anyone routes by the new map. The survivors still
  // reach the leaver: their rosters change only with the new epoch.
  for (const auto& survivor : survivors) {
    for (const std::uint32_t shard : new_map.shards_of(survivor->name())) {
      if (old_map.owns(survivor->name(), shard)) continue;
      std::vector<std::string> sources = old_map.owners(shard);
      std::stable_partition(sources.begin(), sources.end(),
                            [&](const std::string& source) {
                              return source == name;
                            });
      prime(*survivor, shard, sources);
    }
  }
  install(new_map);
  return Status::ok();
}

Status GnsCluster::start() {
  std::vector<std::shared_ptr<ReplicaNode>> nodes;
  {
    MutexLock lock(mu_);
    if (started_) return Status::ok();
    if (nodes_.empty()) {
      return failed_precondition("gns cluster: no replicas added");
    }
    started_ = true;
    nodes = nodes_;
  }
  for (const auto& node : nodes) {
    GL_RETURN_IF_ERROR(node->start());
  }
  install(map());
  start_antientropy();
  return Status::ok();
}

void GnsCluster::start_antientropy() {
  if (options_.ae_interval.count() <= 0 || replica_count() < 2) return;
  MutexLock lock(ae_mu_);
  if (ae_thread_.joinable()) return;
  ae_stop_ = false;
  ae_thread_ = std::thread([this] { ae_loop(); });
}

void GnsCluster::stop() {
  std::thread ae_thread;
  {
    MutexLock lock(ae_mu_);
    ae_stop_ = true;
    ae_cv_.notify_all();
    ae_thread = std::move(ae_thread_);
  }
  if (ae_thread.joinable()) ae_thread.join();
  expire_leases(/*force=*/true);
  std::vector<std::shared_ptr<ReplicaNode>> nodes;
  {
    MutexLock lock(mu_);
    nodes = nodes_;
    started_ = false;
  }
  for (const auto& node : nodes) node->stop();
}

Status GnsCluster::put(MappingRule rule, bool tombstone) {
  const ShardMap map = this->map();
  const std::uint32_t shard =
      map.shard_of_rule(rule.host_pattern, rule.path_pattern);
  Status last = unavailable("gns cluster: no owner reachable");
  for (const std::string& owner : map.owners(shard)) {
    // Skip die@gns-dead owners exactly like the lookup walk does, so a
    // write during an outage coordinates on the next preference-list
    // owner (which is what makes partition drills deterministic).
    if (Status alive = replica_alive(owner); !alive.is_ok()) {
      last = std::move(alive);
      continue;
    }
    const std::shared_ptr<ReplicaNode> owner_node = node(owner);
    if (owner_node == nullptr) continue;
    const Result<std::uint64_t> put_result =
        owner_node->put(rule, tombstone);
    if (put_result.is_ok()) return Status::ok();
    last = put_result.status();
  }
  return last;
}

Status GnsCluster::add_rule(MappingRule rule) {
  return put(std::move(rule), /*tombstone=*/false);
}

Status GnsCluster::remove_rule(const std::string& host_pattern,
                               const std::string& path_pattern) {
  MappingRule rule;
  rule.host_pattern = host_pattern;
  rule.path_pattern = path_pattern;
  return put(std::move(rule), /*tombstone=*/true);
}

std::uint64_t GnsCluster::run_antientropy_round() {
  expire_leases(/*force=*/false);
  const std::vector<std::shared_ptr<ReplicaNode>> nodes = snapshot();
  const ShardMap map = this->map();
  AntiEntropyMetrics::get().rounds.add();
  std::uint64_t repaired = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      // One direction per pair: the exchange verb repairs both ends.
      // A severed/dead pair fails typed and is simply retried next
      // round — that is the whole point of anti-entropy.
      const Result<std::uint64_t> synced = nodes[i]->sync_with(
          nodes[j]->name(),
          shared_shards(map, nodes[i]->name(), nodes[j]->name()),
          /*count_repair=*/true);
      if (synced.is_ok()) repaired += *synced;
    }
  }
  return repaired;
}

bool GnsCluster::converged() const {
  const std::vector<std::shared_ptr<ReplicaNode>> nodes = snapshot();
  const ShardMap map = this->map();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      for (const std::uint32_t shard :
           shared_shards(map, nodes[i]->name(), nodes[j]->name())) {
        if (nodes[i]->store().digest(shard) !=
            nodes[j]->store().digest(shard)) {
          return false;
        }
      }
    }
  }
  return true;
}

Status GnsCluster::converge(int max_rounds) {
  for (int round = 0; round < max_rounds; ++round) {
    if (converged()) return Status::ok();
    run_antientropy_round();
  }
  if (converged()) return Status::ok();
  return unavailable(strings::cat(
      "gns cluster: still divergent after ", max_rounds,
      " anti-entropy rounds (partition still armed?)"));
}

void GnsCluster::expire_leases(bool force) {
  std::vector<Lease> due;
  ShardMap map;
  {
    MutexLock lock(mu_);
    const WallClock::time_point now = WallClock::now();
    const auto expired = std::partition(
        leases_.begin(), leases_.end(),
        [&](const Lease& lease) { return !force && now < lease.until; });
    due.assign(std::make_move_iterator(expired),
               std::make_move_iterator(leases_.end()));
    leases_.erase(expired, leases_.end());
    map = map_;
  }
  for (const Lease& lease : due) {
    if (!lease.shard) {
      lease.node->stop();
    } else if (!map.owns(lease.node->name(), *lease.shard)) {
      // Unless a later epoch handed the shard back to the node.
      lease.node->drop_shard(*lease.shard);
    }
  }
}

void GnsCluster::ae_loop() {
  MutexLock lock(ae_mu_);
  while (!ae_stop_) {
    const auto deadline = WallClock::now() + options_.ae_interval;
    // lint: blocking-ok (monitor wait: releases ae_mu_ until tick/stop)
    if (ae_cv_.wait_until(ae_mu_, deadline,
                          [&]() REQUIRES(ae_mu_) { return ae_stop_; })) {
      return;
    }
    lock.unlock();
    run_antientropy_round();
    lock.lock();
  }
}

}  // namespace griddles::gns
