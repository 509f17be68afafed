// The GNS shard map: how the (host, path) namespace is carved across a
// replica set, and which replicas own each shard.
//
// Lookup keys hash to one of `num_shards` shards; each shard is owned by
// a preference list of `replication` replicas chosen by rendezvous
// (highest-random-weight) hashing, so adding or removing one replica
// reassigns only the shards that replica wins or loses — the consistent-
// hash property the anti-entropy and reconfiguration machinery relies
// on. Rules whose patterns contain globs cannot be hashed to a single
// shard; they live in the distinguished broadcast shard (kGlobalShard),
// owned by every replica, and every lookup consults it alongside the
// key's hashed shard.
//
// A ShardMap is a value: replicas install new epochs wholesale during
// runtime reconfiguration, and clients cache the epoch they last saw.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/xdr/codec.h"

namespace griddles::gns {

/// The broadcast shard holding glob rules; owned by every replica.
inline constexpr std::uint32_t kGlobalShard = 0xffffffffu;

struct ShardMap {
  std::uint64_t epoch = 0;
  std::uint32_t num_shards = 8;
  /// Owners per shard; 0 (or >= replica count) means every replica.
  std::uint32_t replication = 0;
  std::vector<std::string> replicas;  // member ids, sorted unique

  /// The shard a concrete lookup key hashes to.
  std::uint32_t shard_of(std::string_view host,
                         std::string_view path) const;

  /// The shard a rule's key belongs to: kGlobalShard when either
  /// pattern globs, else shard_of(host_pattern, path_pattern).
  std::uint32_t shard_of_rule(std::string_view host_pattern,
                              std::string_view path_pattern) const;

  /// Rendezvous preference list for `shard` (primary first). For
  /// kGlobalShard the full membership, rotated deterministically.
  std::vector<std::string> owners(std::uint32_t shard) const;

  bool owns(std::string_view replica, std::uint32_t shard) const;

  /// Every shard id a replica owns, kGlobalShard included.
  std::vector<std::uint32_t> shards_of(std::string_view replica) const;

  std::uint32_t effective_replication() const noexcept;

  void encode(xdr::Encoder& enc) const;
  static Result<ShardMap> decode(xdr::Decoder& dec);

  friend bool operator==(const ShardMap&, const ShardMap&) = default;
};

}  // namespace griddles::gns
