// Per-replica versioned rule store for the multi-master GNS.
//
// Every GNS replica owns a ReplicaStore: shard buckets of
// (host_pattern, path_pattern) -> VersionedRule entries, where each
// entry carries a vector clock, the coordinating replica's id, and a
// Lamport priority used for rule precedence ("latest write wins" across
// replicas without a shared insertion order).
//
// apply() is the single merge point for replicated and repaired
// entries. Its conflict rule is a semilattice join: when two versions
// compare concurrent, the surviving value is the one with the higher
// (priority, writer-id) pair, the surviving clock is the pointwise max
// of both, and the surviving priority is the max — so two replicas
// resolving the same pair independently, in either order, converge to
// byte-identical state. Every such resolution bumps gns.conflict.* and
// emits a kConflict trace span.
//
// Removals write tombstones (versioned like any write) so anti-entropy
// can replicate deletion instead of resurrecting removed rules.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/gns/mapping.h"
#include "src/gns/vclock.h"

namespace griddles::gns {

/// One versioned namespace entry, keyed by its rule's pattern pair.
struct VersionedRule {
  MappingRule rule;
  bool tombstone = false;
  VClock version;
  std::string writer;          // replica that coordinated the write
  std::uint64_t priority = 0;  // Lamport height: rule precedence

  friend bool operator==(const VersionedRule&,
                         const VersionedRule&) = default;
};

void encode_versioned(xdr::Encoder& enc, const VersionedRule& entry);
Result<VersionedRule> decode_versioned(xdr::Decoder& dec);

class ReplicaStore {
 public:
  explicit ReplicaStore(std::string replica_id)
      : replica_id_(std::move(replica_id)) {}

  /// What apply() did with an incoming entry.
  enum class Applied : std::uint8_t {
    kNew,       // incoming dominated (or key was absent): stored
    kEqual,     // identical version: no-op
    kStale,     // local version dominates: dropped
    kConflict,  // concurrent: deterministically joined and stored
  };

  /// Coordinates a local write on this replica: joins the stored
  /// version, bumps this replica's counter, assigns the next Lamport
  /// priority, stores, and returns the entry to replicate to peers.
  VersionedRule coordinate(std::uint32_t shard, MappingRule rule,
                           bool tombstone);

  /// Merges an already-versioned entry (replication or anti-entropy).
  Applied apply(std::uint32_t shard, const VersionedRule& entry);

  /// Resolves (host, path) against `shard`'s entries plus the broadcast
  /// glob rules in kGlobalShard. Highest (priority, writer) match wins.
  std::optional<FileMapping> lookup(std::uint32_t shard,
                                    std::string_view host,
                                    std::string_view path) const;

  /// Order-independent hash of a shard's entries (tombstones included):
  /// two replicas with equal digests hold identical shard state.
  std::uint64_t digest(std::uint32_t shard) const;

  std::vector<VersionedRule> entries(std::uint32_t shard) const;

  /// Live (non-tombstone) entries in one shard / across all shards.
  std::size_t live_count(std::uint32_t shard) const;
  std::size_t live_count() const;

  /// Drops a whole shard bucket (post-handoff GC on the old owner).
  void drop_shard(std::uint32_t shard);

 private:
  using Key = std::pair<std::string, std::string>;

  static Key key_of(const MappingRule& rule) {
    return {rule.host_pattern, rule.path_pattern};
  }

  /// True when `incoming` beats `current` under the deterministic
  /// concurrent-write rule: higher (priority, writer id).
  static bool concurrent_winner(const VersionedRule& incoming,
                                const VersionedRule& current);

  const std::string replica_id_;

  mutable Mutex mu_;
  std::map<std::uint32_t, std::map<Key, VersionedRule>> shards_
      GUARDED_BY(mu_);
  std::uint64_t lamport_ GUARDED_BY(mu_) = 0;
};

}  // namespace griddles::gns
