// Per-replica versioned rule store for the multi-master GNS.
//
// Every GNS replica owns a ReplicaStore: shard buckets of
// (host_pattern, path_pattern) -> VersionedRule entries. Each entry is
// stamped (priority, writer): a Lamport priority and the id of the
// replica that coordinated the write. The stamp is the one order on
// versions. It decides which of two versions of a key a replica keeps
// and which matching rule a lookup returns ("latest write wins" across
// replicas without a shared insertion order).
//
// apply() is the single merge point for replicated and repaired
// entries: it keeps the version with the larger stamp. A write that
// causally follows another was coordinated on a replica whose Lamport
// counter had already passed the earlier priority, so it always carries
// the larger stamp; two concurrent writes fall to the greater stamp on
// every replica, in either merge order, so replicas converge to
// byte-identical state. A writer never reuses a priority, so equal
// stamps mean the same write.
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

namespace griddles::gns {

/// One versioned namespace entry, keyed by its rule's pattern pair.
struct VersionedRule {
  MappingRule rule;
  bool tombstone = false;
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

  /// Coordinates a local write on this replica: assigns the next Lamport
  /// priority, stores, and returns the entry to replicate to peers.
  VersionedRule coordinate(std::uint32_t shard, MappingRule rule,
                           bool tombstone);

  /// Merges an already-versioned entry (replication or anti-entropy).
  /// True when it was stored: the key was absent or its stored version
  /// carries a smaller stamp.
  bool apply(std::uint32_t shard, const VersionedRule& entry);

  /// Resolves (host, path) against `shard`'s entries plus the broadcast
  /// glob rules in kGlobalShard. The match with the largest stamp wins.
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

  const std::string replica_id_;

  mutable Mutex mu_;
  std::map<std::uint32_t, std::map<Key, VersionedRule>> shards_
      GUARDED_BY(mu_);
  std::uint64_t lamport_ GUARDED_BY(mu_) = 0;
};

}  // namespace griddles::gns
