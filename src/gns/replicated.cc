#include "src/gns/replicated.h"

#include <algorithm>
#include <optional>

#include "src/common/deadline.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace griddles::gns {

namespace {
/// Handles cached once; see src/obs/metrics.h naming scheme.
struct GnsMetrics {
  obs::Counter& failover;        // lookups that survived a replica loss
  obs::Counter& lease_served;    // stale cached answers served (outage)
  obs::Counter& breaker_opened;  // closed -> open transitions
  obs::Counter& breaker_recovered;  // half-open -> closed transitions
  obs::Counter& breaker_probe;      // half-open probe slots claimed
  obs::Gauge& breakers_open;        // replicas currently open
  obs::Gauge& breakers_half_open;   // replicas currently probing

  static GnsMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static GnsMetrics metrics{
        registry.counter("gns.failover"),
        registry.counter("gns.lease.served"),
        registry.counter("gns.breaker.opened"),
        registry.counter("gns.breaker.recovered"),
        registry.counter("gns.breaker.probe"),
        registry.gauge("gns.breaker.open"),
        registry.gauge("gns.breaker.half_open"),
    };
    return metrics;
  }
};

std::int64_t wall_now_ns() {
  return WallClock::now().time_since_epoch().count();
}
}  // namespace

ReplicatedNameService::ReplicatedNameService(net::Transport& transport,
                                             Options options)
    : transport_(transport), options_(options) {}

void ReplicatedNameService::add_replica_locked(std::string name,
                                               net::Endpoint endpoint) {
  auto replica = std::make_unique<Replica>();
  replica->name = std::move(name);
  replica->peer = std::make_unique<PeerClient>(transport_, std::move(endpoint));
  replicas_.push_back(std::move(replica));
}

void ReplicatedNameService::add_replica(std::string name,
                                        net::Endpoint endpoint) {
  MutexLock lock(mu_);
  add_replica_locked(std::move(name), std::move(endpoint));
}

std::vector<ReplicatedNameService::Replica*>
ReplicatedNameService::replicas_snapshot() const {
  MutexLock lock(mu_);
  std::vector<Replica*> result;
  result.reserve(replicas_.size());
  for (const auto& replica : replicas_) result.push_back(replica.get());
  return result;
}

std::uint64_t ReplicatedNameService::map_epoch() const {
  MutexLock lock(mu_);
  return map_.epoch;
}

ReplicatedNameService::Walk ReplicatedNameService::walk_for(
    const std::string& host, const std::string& path, bool write) const {
  MutexLock lock(mu_);
  Walk walk;
  walk.epoch = map_.epoch;
  walk.order.reserve(replicas_.size());
  const std::uint32_t shard =
      write ? map_.shard_of_rule(host, path) : map_.shard_of(host, path);
  for (const std::string& owner : map_.owners(shard)) {
    for (const auto& replica : replicas_) {
      if (replica->name == owner) {
        walk.order.push_back(replica.get());
        break;
      }
    }
  }
  if (write) return walk;
  for (const auto& replica : replicas_) {
    if (std::find(walk.order.begin(), walk.order.end(), replica.get()) ==
        walk.order.end()) {
      walk.order.push_back(replica.get());
    }
  }
  return walk;
}

void ReplicatedNameService::refresh_map() {
  for (Replica* replica : replicas_snapshot()) {
    if (!replica_alive(replica->name).is_ok()) continue;
    Result<std::pair<ShardMap, std::vector<ReplicaAddress>>> fetched =
        replica->peer->get_map();
    if (!fetched.is_ok()) continue;
    MutexLock lock(mu_);
    for (const ReplicaAddress& address : fetched->second) {
      const bool known = std::any_of(
          replicas_.begin(), replicas_.end(), [&](const auto& member) {
            return member->name == address.name;
          });
      if (!known) add_replica_locked(address.name, address.endpoint);
    }
    if (fetched->first.epoch > map_.epoch) map_ = std::move(fetched->first);
    return;
  }
}

bool ReplicatedNameService::admit(Replica& replica) {
  // Hot path (healthy replica): one relaxed load, no writes.
  const auto state = static_cast<BreakerState>(
      replica.state.load(std::memory_order_relaxed));
  if (state == BreakerState::kClosed) return true;
  if (state == BreakerState::kHalfOpen) return false;  // probe in flight
  const std::int64_t cooldown_ns =
      std::chrono::nanoseconds(options_.cooldown).count();
  if (wall_now_ns() - replica.opened_at_ns.load(std::memory_order_relaxed) <
      cooldown_ns) {
    return false;
  }
  // Cooldown elapsed: claim the single half-open probe slot.
  auto expected = static_cast<std::uint8_t>(BreakerState::kOpen);
  if (replica.state.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(BreakerState::kHalfOpen),
          std::memory_order_acq_rel, std::memory_order_relaxed)) {
    GnsMetrics::get().breakers_open.sub(1);
    GnsMetrics::get().breakers_half_open.add(1);
    GnsMetrics::get().breaker_probe.add();
    return true;
  }
  return false;
}

void ReplicatedNameService::record_success(Replica& replica) {
  replica.failures.store(0, std::memory_order_relaxed);
  const auto previous = static_cast<BreakerState>(replica.state.exchange(
      static_cast<std::uint8_t>(BreakerState::kClosed),
      std::memory_order_acq_rel));
  if (previous == BreakerState::kHalfOpen) {
    GnsMetrics::get().breakers_half_open.sub(1);
    GnsMetrics::get().breaker_recovered.add();
  } else if (previous == BreakerState::kOpen) {
    // Shouldn't happen (admit gates open replicas) but keep gauges sane.
    GnsMetrics::get().breakers_open.sub(1);
    GnsMetrics::get().breaker_recovered.add();
  }
}

void ReplicatedNameService::record_failure(Replica& replica) {
  const int failures =
      replica.failures.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto state = static_cast<BreakerState>(
      replica.state.load(std::memory_order_relaxed));
  if (state == BreakerState::kHalfOpen) {
    // The probe failed: back to open, cooldown restarts.
    replica.opened_at_ns.store(wall_now_ns(), std::memory_order_relaxed);
    auto expected = static_cast<std::uint8_t>(BreakerState::kHalfOpen);
    if (replica.state.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(BreakerState::kOpen),
            std::memory_order_acq_rel, std::memory_order_relaxed)) {
      GnsMetrics::get().breakers_half_open.sub(1);
      GnsMetrics::get().breakers_open.add(1);
    }
  } else if (state == BreakerState::kClosed &&
             failures >= options_.failure_threshold) {
    replica.opened_at_ns.store(wall_now_ns(), std::memory_order_relaxed);
    auto expected = static_cast<std::uint8_t>(BreakerState::kClosed);
    if (replica.state.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(BreakerState::kOpen),
            std::memory_order_acq_rel, std::memory_order_relaxed)) {
      GnsMetrics::get().breaker_opened.add();
      GnsMetrics::get().breakers_open.add(1);
    }
  }
}

void ReplicatedNameService::note_version(Replica& replica,
                                         std::uint64_t version) {
  const std::uint64_t before = replica.version.exchange(version);
  if (before == 0 || before == version) return;
  MutexLock lock(mu_);
  cache_.clear();
}

Result<std::optional<FileMapping>> ReplicatedNameService::lookup(
    const std::string& host, const std::string& path) {
  auto key = std::make_pair(host, path);
  {
    MutexLock lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end() &&
        WallClock::now() - it->second.stored_at < kFreshFor) {
      return it->second.mapping;
    }
  }
  if (map_epoch() == 0) refresh_map();

  Status last = unavailable("gns: no replicas registered");
  bool degraded = false;  // some replica was skipped or failed first
  // Opened when the first replica fails or is skipped; covers the rest
  // of the walk, so the timeline shows what the replica loss cost.
  std::optional<obs::Span> failover_span;
  const auto note_degraded = [&](const std::string& replica_name) {
    degraded = true;
    if (!failover_span) {
      failover_span.emplace(obs::SpanKind::kFailover,
                            strings::cat("gns.failover:", replica_name));
    }
  };
  const auto attempt = [&](const Walk& walk)
      -> std::optional<Result<LookupReply>> {
    for (Replica* replica_ptr : walk.order) {
      Replica& replica = *replica_ptr;
      // An expired budget ends the failover walk: trying yet another
      // replica only delays an answer the caller can no longer use.
      if (deadline_expired()) {
        return Result<LookupReply>(check_deadline("gns failover walk"));
      }
      if (Status alive = replica_alive(replica.name); !alive.is_ok()) {
        last = std::move(alive);
        record_failure(replica);
        note_degraded(replica.name);
        continue;
      }
      if (!admit(replica)) {
        note_degraded(replica.name);
        continue;
      }
      Result<LookupReply> result = replica.peer->lookup(host, path);
      if (result.is_ok()) {
        record_success(replica);
        if (degraded) GnsMetrics::get().failover.add();
        note_version(replica, result->version);
        return result;
      }
      if (result.status().code() != ErrorCode::kUnavailable) {
        // A definitive answer (bad request, decode failure): every
        // replica would say the same, so neither fail over nor burn
        // the breaker.
        return result;
      }
      record_failure(replica);
      note_degraded(replica.name);
      last = result.status();
    }
    return std::nullopt;
  };

  const Walk walk = walk_for(host, path, /*write=*/false);
  std::optional<Result<LookupReply>> answered = attempt(walk);
  // An answer from a node on another map epoch may come from an owner
  // that has handed the shard off, and an unanswered walk may have
  // missed the roster's new members: refetch the map once and re-walk
  // under the new epoch before accepting an answer or giving up.
  if (!answered || (answered->is_ok() && (*answered)->epoch != walk.epoch)) {
    refresh_map();
    const Walk rewalk = walk_for(host, path, /*write=*/false);
    if (rewalk.epoch != walk.epoch) answered = attempt(rewalk);
  }
  if (answered) {
    if (!answered->is_ok()) return answered->status();
    MutexLock lock(mu_);
    cache_[std::move(key)] = Cached{(*answered)->mapping, WallClock::now()};
    return std::move((*answered)->mapping);
  }
  // Total outage: a recent answer keeps in-flight opens on their last
  // known route; a cold lookup fails typed so callers can recover.
  MutexLock lock(mu_);
  const auto it = cache_.find(key);
  if (it != cache_.end() &&
      WallClock::now() - it->second.stored_at <= kStaleIfErrorFor) {
    GnsMetrics::get().lease_served.add();
    return it->second.mapping;
  }
  return last;
}

Status ReplicatedNameService::write(const MappingRule& rule,
                                    bool tombstone) {
  if (map_epoch() == 0) refresh_map();
  const auto attempt = [&](const Walk& walk) -> Status {
    Status last = unavailable("gns: no owner reachable for the rule");
    for (Replica* replica_ptr : walk.order) {
      Replica& replica = *replica_ptr;
      if (Status alive = replica_alive(replica.name); !alive.is_ok()) {
        last = std::move(alive);
        continue;
      }
      if (!admit(replica)) continue;
      const Result<std::uint64_t> put_result =
          replica.peer->put(rule, tombstone);
      if (put_result.is_ok()) {
        record_success(replica);
        if (*put_result != walk.epoch) refresh_map();
        return Status::ok();
      }
      last = put_result.status();
      // A refusal (the replica does not own the shard under its map)
      // moves on to the next owner; any error but kUnavailable is final.
      if (last.code() == ErrorCode::kFailedPrecondition) continue;
      if (last.code() != ErrorCode::kUnavailable) return last;
      record_failure(replica);
    }
    return last;
  };

  const Walk walk = walk_for(rule.host_pattern, rule.path_pattern,
                             /*write=*/true);
  Status written = attempt(walk);
  // A refusal means the map is stale, and an unanswered walk may have
  // missed the shard's new owners: refetch the map once and re-walk
  // under the new epoch, as lookup does.
  if (written.code() == ErrorCode::kFailedPrecondition ||
      written.code() == ErrorCode::kUnavailable) {
    refresh_map();
    const Walk rewalk = walk_for(rule.host_pattern, rule.path_pattern,
                                 /*write=*/true);
    if (rewalk.epoch != walk.epoch) written = attempt(rewalk);
  }
  GL_RETURN_IF_ERROR(written);
  // Write-through invalidation: without it this client's own remap
  // would stay invisible until its cached answer went stale.
  MutexLock lock(mu_);
  std::erase_if(cache_, [&](const auto& entry) {
    return strings::glob_match(rule.host_pattern, entry.first.first) &&
           strings::glob_match(rule.path_pattern, entry.first.second);
  });
  return Status::ok();
}

Status ReplicatedNameService::add_rule(const MappingRule& rule) {
  return write(rule, /*tombstone=*/false);
}

Status ReplicatedNameService::remove_rule(const std::string& host_pattern,
                                          const std::string& path_pattern) {
  MappingRule rule;
  rule.host_pattern = host_pattern;
  rule.path_pattern = path_pattern;
  return write(rule, /*tombstone=*/true);
}

BreakerState ReplicatedNameService::breaker_state(
    std::string_view name) const {
  MutexLock lock(mu_);
  for (const auto& replica : replicas_) {
    if (replica->name == name) {
      return static_cast<BreakerState>(
          replica->state.load(std::memory_order_relaxed));
    }
  }
  return BreakerState::kClosed;
}

std::size_t ReplicatedNameService::cache_size() const {
  MutexLock lock(mu_);
  return cache_.size();
}

}  // namespace griddles::gns
