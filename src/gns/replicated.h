// The GNS client: one name service over a GnsCluster's replicas.
//
// The service is shard-aware: it caches the cluster's ShardMap and walks
// each key's rendezvous preference list (primary first, then every
// other replica), so reads land on the replica that coordinated the
// latest write for that shard. Every kLookup reply carries the
// answering node's map epoch; when it differs from the epoch the walk
// was routed by, the client refetches the map (kGetMap) once and
// re-walks before it accepts an answer — so a client routing by an old
// epoch never takes "no mapping" from an owner that has handed the
// shard off and dropped it. A walk that nobody answers refetches the
// map once too (the roster may have moved). Writes walk the same way
// over the shard's owners only: a node that does not own the shard
// refuses the write (kFailedPrecondition), and a refusal refetches the
// map and re-walks once.
//
// Resilience per replica attempt:
//   - circuit breakers: closed -> open after `failure_threshold`
//     consecutive kUnavailable lookups, open -> half-open after a fixed
//     `cooldown` (exactly ONE probe is admitted, counted by
//     gns.breaker.probe), half-open -> closed on success;
//   - failover: any replica's transient failure moves the walk to the
//     next candidate (`gns.failover` counts lookups that survived).
//
// One cache, keyed (host, path) and checked before any RPC:
//   - an answer is served fresh for kFreshFor without asking a replica;
//   - after that it is served only when every candidate replica fails,
//     for at most kStaleIfErrorFor (`gns.lease.served`);
//   - the whole table is flushed when a replica reports a lookup version
//     other than the one it last reported (dynamic remapping, §3.1);
//   - writes through this client drop the entries the rule shadows
//     (write-through invalidation), so its own remaps show at once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/gns/multimaster.h"

namespace griddles::gns {

/// Circuit-breaker state of one replica, in the classic three-state
/// machine (see DESIGN.md "Control-plane resilience").
enum class BreakerState : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

class ReplicatedNameService {
 public:
  struct Options {
    /// Consecutive kUnavailable lookups that open a replica's breaker.
    int failure_threshold = 3;
    /// Wall time an open breaker waits before admitting the half-open
    /// probe lookup. Fixed, so schedules replay deterministically.
    std::chrono::milliseconds cooldown{250};
  };

  /// How long a cached answer is served without asking a replica.
  static constexpr std::chrono::milliseconds kFreshFor{200};
  /// How long a cached answer may stand in when every replica fails.
  static constexpr std::chrono::milliseconds kStaleIfErrorFor{30000};

  ReplicatedNameService(net::Transport& transport, Options options);
  explicit ReplicatedNameService(net::Transport& transport)
      : ReplicatedNameService(transport, Options{}) {}

  /// Registers a replica; `name` doubles as the fault-plan site key
  /// (`die@gns:<name>`). The roster also grows with the replicas a map
  /// fetch reports.
  void add_replica(std::string name, net::Endpoint endpoint);

  /// Resolves (host, path); nullopt = no mapping, use plain local IO.
  /// Serves a fresh cached answer, else walks the key's owners, failing
  /// over on transient errors; under total outage serves a cached
  /// answer up to kStaleIfErrorFor old, or the last typed error.
  Result<std::optional<FileMapping>> lookup(const std::string& host,
                                            const std::string& path);

  /// Coordinates a rule write on the shard's first healthy owner, then
  /// drops the cached answers the rule shadows.
  Status add_rule(const MappingRule& rule);

  /// Tombstones the rule keyed (host_pattern, path_pattern).
  Status remove_rule(const std::string& host_pattern,
                     const std::string& path_pattern);

  BreakerState breaker_state(std::string_view name) const;
  /// Cached (host, path) answers currently held (tests).
  std::size_t cache_size() const;
  /// The cached map's epoch, 0 before any fetch (tests).
  std::uint64_t map_epoch() const;

 private:
  struct Replica {
    std::string name;
    std::unique_ptr<PeerClient> peer;
    // lint: not-a-metric (breaker state machine, exported via gauges)
    std::atomic<std::uint8_t> state{
        static_cast<std::uint8_t>(BreakerState::kClosed)};
    // lint: not-a-metric (breaker bookkeeping, reset on success)
    std::atomic<int> failures{0};
    // lint: not-a-metric (wall timestamp of the open transition)
    std::atomic<std::int64_t> opened_at_ns{0};
    // lint: not-a-metric (last lookup version reported; 0 = none yet)
    std::atomic<std::uint64_t> version{0};
  };

  struct Cached {
    std::optional<FileMapping> mapping;
    WallClock::time_point stored_at{};
  };

  /// Candidate replicas in preference order, and the map epoch that
  /// ordered them.
  struct Walk {
    std::vector<Replica*> order;
    std::uint64_t epoch = 0;
  };

  /// Breaker gate: may this attempt hit `replica`? Claims the half-open
  /// probe slot when the cooldown has elapsed.
  bool admit(Replica& replica);
  void record_success(Replica& replica);
  void record_failure(Replica& replica);

  /// Fetches the cluster's map from the first replica that answers,
  /// keeps it when its epoch is newer, and grows the roster with the
  /// replicas it names.
  void refresh_map();

  std::vector<Replica*> replicas_snapshot() const;
  /// The replicas to try for the key (host, path), or for the rule with
  /// those patterns when `write`: the shard's owners under the cached
  /// map, then, for lookups only, every other replica as a stale-map
  /// fallback.
  Walk walk_for(const std::string& host, const std::string& path,
                bool write) const;
  void add_replica_locked(std::string name, net::Endpoint endpoint)
      REQUIRES(mu_);

  /// Flushes the whole cache when `replica` reports a lookup version
  /// other than the one it last reported.
  void note_version(Replica& replica, std::uint64_t version);

  /// Coordinates a write (or tombstone) on the first healthy owner; a
  /// refusal or an unanswered walk refetches the map and re-walks once.
  Status write(const MappingRule& rule, bool tombstone);

  net::Transport& transport_;
  const Options options_;

  mutable Mutex mu_;
  std::vector<std::unique_ptr<Replica>> replicas_ GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, Cached> cache_
      GUARDED_BY(mu_);
  ShardMap map_ GUARDED_BY(mu_);
};

}  // namespace griddles::gns
