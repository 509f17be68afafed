// Multi-master GNS replica node and its peer RPC face.
//
// A ReplicaNode owns its OWN ReplicaStore, so replicas can diverge
// under partition and converge again: writes coordinate on one owner
// (which stamps them with its next Lamport priority), replicate
// synchronously to the shard's co-owners, and tolerate replication
// failure — a partitioned or dead peer simply misses the write and
// anti-entropy repairs it after the fault heals.
//
// kLookup replies carry the node's lookup version (clients flush their
// cache when it moves) and its map epoch (clients routing by another
// epoch refetch the map and re-walk before accepting the answer). A
// node refuses a write for a shard it does not own (kFailedPrecondition)
// rather than forwarding it: the writer refetches the map and re-walks.
//
// Fault surface (consulted BEFORE any peer RPC, sender side, so the
// injection schedule is deterministic per message):
//   - Site::kGnsSync, key sync_pair_key(a, b): `partition@gns:<a>-<b>`
//     severs replicate pushes and anti-entropy between a and b;
//   - Site::kGns, key <replica>: `die@gns:<replica>` stops that replica
//     from sending OR receiving sync — a dead replica both misses
//     writes and cannot pull repairs, which is what makes the
//     ROADMAP divergence drill produce real divergence. The same verdict
//     (replica_alive) skips the replica in every client and cluster walk.
#pragma once

#include <atomic>
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

/// The one liveness check for a GNS replica: consults `die@gns:<replica>`
/// (Site::kGns) in the armed plan. kUnavailable on kFail/kKill; injected
/// delays are slept here.
Status replica_alive(std::string_view replica);

/// GNS RPC method ids.
enum class PeerMethod : std::uint16_t {
  kLookup = 1,      // resolve one key; reply carries version + epoch
  kPut = 6,         // coordinate a client write (owners only)
  kReplicate = 7,   // owner -> co-owner push of one versioned entry
  kDigests = 8,     // per-shard digests of the callee's store
  kExchange = 9,    // bidirectional entry swap for one divergent shard
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
  PeerClient(net::Transport& transport, net::Endpoint server);

  Result<LookupReply> lookup(const std::string& host,
                             const std::string& path);

  /// Coordinates a write on the callee, which must own the rule's shard
  /// (kFailedPrecondition otherwise). Returns the callee's map epoch
  /// (stale callers should refresh).
  Result<std::uint64_t> put(const MappingRule& rule, bool tombstone);

  Result<std::vector<std::pair<std::uint32_t, std::uint64_t>>> digests();

  /// Sends `mine` for `shard`; the callee merges them and replies with
  /// its own entries, which the caller merges — one RPC, both repaired.
  Result<std::vector<VersionedRule>> exchange(
      std::uint32_t shard, const std::vector<VersionedRule>& mine);

  Status replicate(std::uint32_t shard, const VersionedRule& entry);
  Result<std::pair<ShardMap, std::vector<ReplicaAddress>>> get_map();

 private:
  net::RpcClient rpc_;
};

/// One multi-master replica: its own versioned store, the current shard
/// map with its (name, endpoint) roster, and the RPC server face.
class ReplicaNode {
 public:
  ReplicaNode(std::string name, net::Transport& transport,
              net::Endpoint bind);

  Status start() { return rpc_.start(); }
  void stop() { rpc_.stop(); }

  const std::string& name() const noexcept { return name_; }
  net::Endpoint endpoint() const { return rpc_.endpoint(); }

  /// Installs the membership: `map` and the (name, endpoint) roster the
  /// node syncs with and serves on kGetMap. Takes effect only when the
  /// epoch is newer, and bumps the lookup version so client caches
  /// revalidate.
  void install(ShardMap map, std::vector<ReplicaAddress> roster);
  ShardMap map() const;

  /// Coordinates a write on this node, which must own the rule's shard
  /// under its map (kFailedPrecondition otherwise), and replicates it to
  /// the co-owners. Replication failures are tolerated and counted
  /// (gns.replicate.failed) — anti-entropy repairs the miss.
  Result<std::uint64_t> put(MappingRule rule, bool tombstone);

  /// One exchange with `peer` over `shards`: compare digests, swap
  /// entries for the divergent shards. Anti-entropy passes the shards
  /// both own and counts repairs (gns.antientropy.repaired); handoff
  /// priming passes a shard the node is about to own and does not.
  /// Returns the number of the peer's entries this side stored. Fails
  /// typed when the pair is partitioned, either end is dead, or `peer`
  /// is not in the roster.
  Result<std::uint64_t> sync_with(const std::string& peer,
                                  const std::vector<std::uint32_t>& shards,
                                  bool count_repair);

  /// Drops a handed-off shard's bucket and bumps the lookup version.
  void drop_shard(std::uint32_t shard);

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

  /// The client for one sync message to `peer`, once the armed fault
  /// plan lets it through: kUnavailable when the pair is partitioned or
  /// either end is `die@gns` dead (injected delays are slept here),
  /// kNotFound when `peer` is not in the roster.
  Result<std::shared_ptr<PeerClient>> sync_peer(const std::string& peer);

  /// Merges `entry`, bumping the lookup version and the anti-entropy
  /// repair counter (when `count_repair`); true on effective change.
  bool merge_entry(std::uint32_t shard, const VersionedRule& entry,
                   bool count_repair);

  const std::string name_;
  net::Transport& transport_;
  ReplicaStore store_;
  net::RpcServer rpc_;

  // lint: not-a-metric (cache-invalidation version, echoed by kLookup)
  std::atomic<std::uint64_t> version_{1};

  struct Peer {
    net::Endpoint endpoint;
    std::shared_ptr<PeerClient> client;  // lazily dialled
  };

  mutable Mutex mu_;
  ShardMap map_ GUARDED_BY(mu_);
  std::map<std::string, Peer> peers_ GUARDED_BY(mu_);  // the roster
};

}  // namespace griddles::gns
