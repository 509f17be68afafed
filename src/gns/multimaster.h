// Multi-master GNS replica node and its peer RPC face.
//
// A ReplicaNode owns its OWN ReplicaStore, so replicas can diverge
// under partition and converge again: writes coordinate on one owner
// (vector-clock bump + Lamport priority), replicate synchronously to the
// shard's co-owners, and tolerate replication failure — a partitioned or
// dead peer simply misses the write and anti-entropy repairs it after
// the fault heals.
//
// kLookup replies carry the node's lookup version (clients flush their
// cache when it moves) and its map epoch (clients routing by another
// epoch refetch the map and re-walk before accepting the answer).
//
// Fault surface (consulted BEFORE any peer RPC, sender side, so the
// injection schedule is deterministic per message):
//   - Site::kGnsSync, key sync_pair_key(a, b): `partition@gns:<a>-<b>`
//     severs replicate-forwards and anti-entropy between a and b;
//   - Site::kGns, key <replica>: `die@gns:<replica>` stops that replica
//     from sending OR receiving sync — a dead replica both misses
//     writes and cannot pull repairs, which is what makes the
//     ROADMAP divergence drill produce real divergence.
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
#include "src/gns/mapping.h"
#include "src/gns/shard_map.h"
#include "src/gns/store.h"
#include "src/net/rpc.h"

namespace griddles::gns {

/// Canonical fault-plan key for the (a, b) sync pair: the two names
/// sorted and joined with '-', so one `partition@gns:a-b` rule severs
/// both directions regardless of which side initiates.
std::string sync_pair_key(std::string_view a, std::string_view b);

/// GNS RPC method ids.
enum class PeerMethod : std::uint16_t {
  kLookup = 1,      // resolve one key; reply carries version + epoch
  kPut = 6,         // coordinate a client write (may forward to owner)
  kReplicate = 7,   // owner -> co-owner push of one versioned entry
  kDigests = 8,     // per-shard digests of the callee's store
  kExchange = 9,    // bidirectional entry swap for one divergent shard
  kInstallMap = 10, // push a higher-epoch ShardMap
  kGetMap = 11,     // current map + (name, endpoint) roster
};

/// One (name, endpoint) membership row as served by kGetMap.
struct ReplicaAddress {
  std::string name;
  net::Endpoint endpoint;
};

/// A replica's answer to kLookup.
struct LookupReply {
  std::optional<FileMapping> mapping;  // nullopt = plain local IO
  std::uint64_t version = 0;           // the node's lookup version
  std::uint64_t epoch = 0;             // the node's map epoch
};

/// Typed client for the GNS verbs. Thread-safe (the underlying
/// RpcClient serialises calls).
class PeerClient {
 public:
  PeerClient(net::Transport& transport, net::Endpoint server,
             net::WireFormat format = net::WireFormat::kBinary);

  Result<LookupReply> lookup(const std::string& host,
                             const std::string& path);

  /// Coordinates a write. `allow_forward` lets the callee relay to the
  /// shard owner when it no longer owns the key (stale client map);
  /// forwarded hops send false so a map disagreement cannot loop.
  /// Returns the callee's map epoch (stale callers should refresh).
  Result<std::uint64_t> put(const MappingRule& rule, bool tombstone,
                            bool allow_forward);

  Result<std::vector<std::pair<std::uint32_t, std::uint64_t>>> digests();

  /// Sends `mine` for `shard`; the callee merges them and replies with
  /// its own entries, which the caller merges — one RPC, both repaired.
  Result<std::vector<VersionedRule>> exchange(
      std::uint32_t shard, const std::vector<VersionedRule>& mine);

  Status replicate(std::uint32_t shard, const VersionedRule& entry);
  Status install_map(const ShardMap& map);
  Result<std::pair<ShardMap, std::vector<ReplicaAddress>>> get_map();

 private:
  net::RpcClient rpc_;
};

/// One multi-master replica: its own versioned store, the current shard
/// map, a peer registry, and the RPC server face.
class ReplicaNode {
 public:
  ReplicaNode(std::string name, net::Transport& transport,
              net::Endpoint bind,
              net::WireFormat format = net::WireFormat::kBinary);

  Status start() { return rpc_.start(); }
  void stop() { rpc_.stop(); }

  const std::string& name() const noexcept { return name_; }
  net::Endpoint endpoint() const { return rpc_.endpoint(); }

  /// Installs `map` if its epoch is newer (idempotent otherwise) and
  /// bumps the lookup version so client caches revalidate.
  void set_map(ShardMap map);
  ShardMap map() const;

  void set_peer(const std::string& peer, net::Endpoint endpoint);
  void remove_peer(const std::string& peer);
  std::vector<ReplicaAddress> roster() const;

  /// Coordinates a write on this node (or forwards it to the shard's
  /// primary when this node does not own the shard and `allow_forward`).
  /// Replication failures are tolerated and counted
  /// (gns.replicate.failed) — anti-entropy repairs the miss.
  Result<std::uint64_t> put(MappingRule rule, bool tombstone,
                            bool allow_forward);

  /// One anti-entropy exchange with `peer`: compare digests for every
  /// shard both own, swap entries for the divergent ones. Returns the
  /// number of entries this side repaired (kNew/kConflict applies).
  /// Fails typed when the pair is partitioned or either end is dead.
  Result<std::uint64_t> sync_with(const std::string& peer);

  /// Targeted handoff sync: pull one shard's entries from `peer`
  /// (runtime reconfiguration primes a new owner BEFORE the new map is
  /// installed, so no lookup ever observes a missing shard).
  Status sync_shard_from(const std::string& peer, std::uint32_t shard);

  /// Post-handoff GC: drop `shard`'s bucket once the wall clock passes
  /// `after` (the old owner serves stale-map readers until then).
  void schedule_drop(std::uint32_t shard, WallClock::time_point after);
  /// Applies due drops (called from the anti-entropy tick).
  void gc_dropped_shards();

  /// Monotonic lookup version: bumped on every store change or map
  /// install, echoed by kLookup — the client cache's flush key.
  std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_relaxed);
  }

  ReplicaStore& store() noexcept { return store_; }
  const ReplicaStore& store() const noexcept { return store_; }

 private:
  void register_handlers();
  LookupReply resolve(std::string_view host, std::string_view path) const;
  void bump_version() noexcept {
    version_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consults the armed fault plan for one sync message to `peer`:
  /// kSever when the pair is partitioned, kUnavailable when either end
  /// is `die@gns` dead; injected delays are slept here.
  Status consult_sync_fault(const std::string& peer);

  std::shared_ptr<PeerClient> peer_client(const std::string& peer);

  /// Merges `entry`, bumping the lookup version and the anti-entropy
  /// repair counter (when `count_repair`) on effective change.
  ReplicaStore::Applied merge_entry(std::uint32_t shard,
                                    const VersionedRule& entry,
                                    bool count_repair);

  const std::string name_;
  net::Transport& transport_;
  const net::WireFormat format_;
  ReplicaStore store_;
  net::RpcServer rpc_;

  // lint: not-a-metric (cache-invalidation version, echoed by kLookup)
  std::atomic<std::uint64_t> version_{1};

  struct Peer {
    net::Endpoint endpoint;
    std::shared_ptr<PeerClient> client;  // lazily dialled
  };

  struct PendingDrop {
    std::uint32_t shard = 0;
    WallClock::time_point after{};
  };

  mutable Mutex mu_;
  ShardMap map_ GUARDED_BY(mu_);
  std::map<std::string, Peer> peers_ GUARDED_BY(mu_);
  std::vector<PendingDrop> pending_drops_ GUARDED_BY(mu_);
};

}  // namespace griddles::gns
