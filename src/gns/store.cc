#include "src/gns/store.h"

#include <tuple>

#include "src/common/bytes.h"
#include "src/gns/shard_map.h"

namespace griddles::gns {

namespace {
/// The one order on versions: true when `a` carries the larger
/// (priority, writer) stamp.
bool newer(const VersionedRule& a, const VersionedRule& b) {
  return std::tie(a.priority, a.writer) > std::tie(b.priority, b.writer);
}
}  // namespace

void encode_versioned(xdr::Encoder& enc, const VersionedRule& entry) {
  encode_rule(enc, entry.rule);
  enc.put_bool(entry.tombstone);
  enc.put_string(entry.writer);
  enc.put_u64(entry.priority);
}

Result<VersionedRule> decode_versioned(xdr::Decoder& dec) {
  VersionedRule entry;
  GL_ASSIGN_OR_RETURN(entry.rule, decode_rule(dec));
  GL_ASSIGN_OR_RETURN(entry.tombstone, dec.boolean());
  GL_ASSIGN_OR_RETURN(entry.writer, dec.string());
  GL_ASSIGN_OR_RETURN(entry.priority, dec.u64());
  return entry;
}

VersionedRule ReplicaStore::coordinate(std::uint32_t shard,
                                       MappingRule rule, bool tombstone) {
  MutexLock lock(mu_);
  VersionedRule entry;
  entry.rule = std::move(rule);
  entry.tombstone = tombstone;
  entry.writer = replica_id_;
  entry.priority = ++lamport_;
  shards_[shard][key_of(entry.rule)] = entry;
  return entry;
}

bool ReplicaStore::apply(std::uint32_t shard, const VersionedRule& entry) {
  MutexLock lock(mu_);
  if (entry.priority > lamport_) lamport_ = entry.priority;
  const auto [it, inserted] =
      shards_[shard].try_emplace(key_of(entry.rule), entry);
  if (inserted) return true;
  if (!newer(entry, it->second)) return false;
  it->second = entry;
  return true;
}

std::optional<FileMapping> ReplicaStore::lookup(std::uint32_t shard,
                                                std::string_view host,
                                                std::string_view path) const {
  MutexLock lock(mu_);
  const VersionedRule* best = nullptr;
  const auto consider = [&](std::uint32_t bucket_id) {
    const auto bucket_it = shards_.find(bucket_id);
    if (bucket_it == shards_.end()) return;
    for (const auto& [key, entry] : bucket_it->second) {
      if (entry.tombstone) continue;
      if (!entry.rule.matches(host, path)) continue;
      if (best == nullptr || newer(entry, *best)) best = &entry;
    }
  };
  consider(shard);
  if (shard != kGlobalShard) consider(kGlobalShard);
  if (best == nullptr) return std::nullopt;
  return best->rule.mapping;
}

std::uint64_t ReplicaStore::digest(std::uint32_t shard) const {
  MutexLock lock(mu_);
  const auto bucket_it = shards_.find(shard);
  if (bucket_it == shards_.end()) return 0;
  // XOR of per-entry hashes: order-independent, so replicas that
  // merged in different orders still produce equal digests.
  std::uint64_t digest = 0;
  for (const auto& [key, entry] : bucket_it->second) {
    xdr::Encoder enc;
    encode_versioned(enc, entry);
    digest ^= fnv1a(enc.buffer());
  }
  return digest;
}

std::vector<VersionedRule> ReplicaStore::entries(
    std::uint32_t shard) const {
  MutexLock lock(mu_);
  std::vector<VersionedRule> result;
  const auto bucket_it = shards_.find(shard);
  if (bucket_it == shards_.end()) return result;
  result.reserve(bucket_it->second.size());
  for (const auto& [key, entry] : bucket_it->second) {
    result.push_back(entry);
  }
  return result;
}

std::size_t ReplicaStore::live_count(std::uint32_t shard) const {
  MutexLock lock(mu_);
  const auto bucket_it = shards_.find(shard);
  if (bucket_it == shards_.end()) return 0;
  std::size_t live = 0;
  for (const auto& [key, entry] : bucket_it->second) {
    if (!entry.tombstone) ++live;
  }
  return live;
}

std::size_t ReplicaStore::live_count() const {
  MutexLock lock(mu_);
  std::size_t live = 0;
  for (const auto& [shard, bucket] : shards_) {
    for (const auto& [key, entry] : bucket) {
      if (!entry.tombstone) ++live;
    }
  }
  return live;
}

void ReplicaStore::drop_shard(std::uint32_t shard) {
  MutexLock lock(mu_);
  shards_.erase(shard);
}

}  // namespace griddles::gns
