#include "src/gns/store.h"

#include "src/common/bytes.h"
#include "src/common/strings.h"
#include "src/gns/shard_map.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace griddles::gns {

namespace {
/// Handles cached once; see src/obs/metrics.h naming scheme.
struct ConflictMetrics {
  obs::Counter& detected;  // concurrent version pairs seen by apply()
  obs::Counter& resolved;  // pairs joined deterministically (== detected)

  static ConflictMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static ConflictMetrics metrics{
        registry.counter("gns.conflict.detected"),
        registry.counter("gns.conflict.resolved"),
    };
    return metrics;
  }
};
}  // namespace

void encode_versioned(xdr::Encoder& enc, const VersionedRule& entry) {
  encode_rule(enc, entry.rule);
  enc.put_bool(entry.tombstone);
  entry.version.encode(enc);
  enc.put_string(entry.writer);
  enc.put_u64(entry.priority);
}

Result<VersionedRule> decode_versioned(xdr::Decoder& dec) {
  VersionedRule entry;
  GL_ASSIGN_OR_RETURN(entry.rule, decode_rule(dec));
  GL_ASSIGN_OR_RETURN(entry.tombstone, dec.boolean());
  GL_ASSIGN_OR_RETURN(entry.version, VClock::decode(dec));
  GL_ASSIGN_OR_RETURN(entry.writer, dec.string());
  GL_ASSIGN_OR_RETURN(entry.priority, dec.u64());
  return entry;
}

bool ReplicaStore::concurrent_winner(const VersionedRule& incoming,
                                     const VersionedRule& current) {
  if (incoming.priority != current.priority) {
    return incoming.priority > current.priority;
  }
  // Same writer cannot produce concurrent versions (its own counter
  // orders them), so the ids differ and the comparison is total.
  return incoming.writer > current.writer;
}

VersionedRule ReplicaStore::coordinate(std::uint32_t shard,
                                       MappingRule rule, bool tombstone) {
  MutexLock lock(mu_);
  auto& bucket = shards_[shard];
  const Key key = key_of(rule);
  VersionedRule entry;
  entry.rule = std::move(rule);
  entry.tombstone = tombstone;
  const auto it = bucket.find(key);
  if (it != bucket.end()) entry.version = it->second.version;
  entry.version.bump(replica_id_);
  entry.writer = replica_id_;
  entry.priority = ++lamport_;
  bucket[key] = entry;
  return entry;
}

ReplicaStore::Applied ReplicaStore::apply(std::uint32_t shard,
                                          const VersionedRule& entry) {
  MutexLock lock(mu_);
  if (entry.priority > lamport_) lamport_ = entry.priority;
  auto& bucket = shards_[shard];
  const Key key = key_of(entry.rule);
  const auto it = bucket.find(key);
  if (it == bucket.end()) {
    bucket.emplace(key, entry);
    return Applied::kNew;
  }
  VersionedRule& current = it->second;
  switch (current.version.compare(entry.version)) {
    case VOrder::kEqual:
      return Applied::kEqual;
    case VOrder::kBefore:
      current = entry;
      return Applied::kNew;
    case VOrder::kAfter:
      return Applied::kStale;
    case VOrder::kConcurrent:
      break;
  }
  // Divergent writes met: deterministic semilattice join. Both sides
  // of the exchange run the same rule, so they converge to identical
  // bytes regardless of merge order.
  ConflictMetrics::get().detected.add();
  obs::Span conflict_span(
      obs::SpanKind::kConflict,
      strings::cat("gns.conflict:", key.first, "|", key.second));
  conflict_span.add_attr("local", current.version.to_string());
  conflict_span.add_attr("remote", entry.version.to_string());
  VClock joined = current.version;
  joined.join(entry.version);
  if (concurrent_winner(entry, current)) {
    const std::uint64_t priority =
        std::max(current.priority, entry.priority);
    current = entry;
    current.priority = priority;
  }
  conflict_span.add_attr("winner", current.writer);
  current.version = std::move(joined);
  ConflictMetrics::get().resolved.add();
  return Applied::kConflict;
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
      if (best == nullptr || entry.priority > best->priority ||
          (entry.priority == best->priority &&
           entry.writer > best->writer)) {
        best = &entry;
      }
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
