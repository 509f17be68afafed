#include "src/gns/multimaster.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"
#include "src/fault/plan.h"
#include "src/obs/metrics.h"

namespace griddles::gns {

namespace {
constexpr std::uint16_t method_id(PeerMethod m) {
  return static_cast<std::uint16_t>(m);
}

/// Handles cached once; see src/obs/metrics.h naming scheme.
struct MultiMasterMetrics {
  obs::Counter& replicate_failed;  // co-owner pushes lost (AE repairs)
  obs::Counter& repaired;          // entries fixed by anti-entropy

  static MultiMasterMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static MultiMasterMetrics metrics{
        registry.counter("gns.replicate.failed"),
        registry.counter("gns.antientropy.repaired"),
    };
    return metrics;
  }
};
}  // namespace

std::string sync_pair_key(std::string_view a, std::string_view b) {
  if (b < a) std::swap(a, b);
  return strings::cat(a, "-", b);
}

Status replica_alive(std::string_view replica) {
  fault::Plan* plan = fault::armed();
  if (plan == nullptr) return Status::ok();
  const fault::Decision verdict =
      plan->consult(fault::Site::kGns, replica);
  if (verdict.action == fault::Decision::Action::kFail ||
      verdict.action == fault::Decision::Action::kKill) {
    return unavailable(strings::cat("injected fault: gns ", replica));
  }
  if (verdict.action == fault::Decision::Action::kDelay) {
    fault::sleep_for_model(verdict.delay);
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// PeerClient

PeerClient::PeerClient(net::Transport& transport, net::Endpoint server)
    : rpc_(transport, std::move(server)) {}

Result<LookupReply> PeerClient::lookup(const std::string& host,
                                       const std::string& path) {
  xdr::Encoder enc;
  enc.put_string(host);
  enc.put_string(path);
  GL_ASSIGN_OR_RETURN(
      const Buffer reply,
      rpc_.call(method_id(PeerMethod::kLookup), enc.buffer()));
  xdr::Decoder dec(reply);
  LookupReply result;
  GL_ASSIGN_OR_RETURN(result.version, dec.u64());
  GL_ASSIGN_OR_RETURN(result.epoch, dec.u64());
  GL_ASSIGN_OR_RETURN(const bool present, dec.boolean());
  if (present) {
    GL_ASSIGN_OR_RETURN(result.mapping, decode_mapping(dec));
  }
  return result;
}

Result<std::uint64_t> PeerClient::put(const MappingRule& rule,
                                      bool tombstone) {
  xdr::Encoder enc;
  encode_rule(enc, rule);
  enc.put_bool(tombstone);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(PeerMethod::kPut), enc.buffer()));
  xdr::Decoder dec(reply);
  return dec.u64();
}

Result<std::vector<std::pair<std::uint32_t, std::uint64_t>>>
PeerClient::digests() {
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(PeerMethod::kDigests), {}));
  xdr::Decoder dec(reply);
  using Row = std::pair<std::uint32_t, std::uint64_t>;
  return dec.vector<Row>([](xdr::Decoder& d) -> Result<Row> {
    Row row;
    GL_ASSIGN_OR_RETURN(row.first, d.u32());
    GL_ASSIGN_OR_RETURN(row.second, d.u64());
    return row;
  });
}

Result<std::vector<VersionedRule>> PeerClient::exchange(
    std::uint32_t shard, const std::vector<VersionedRule>& mine) {
  xdr::Encoder enc;
  enc.put_u32(shard);
  enc.put_vector(mine, [](xdr::Encoder& e, const VersionedRule& entry) {
    encode_versioned(e, entry);
  });
  GL_ASSIGN_OR_RETURN(
      const Buffer reply,
      rpc_.call(method_id(PeerMethod::kExchange), enc.buffer()));
  xdr::Decoder dec(reply);
  return dec.vector<VersionedRule>(
      [](xdr::Decoder& d) { return decode_versioned(d); });
}

Status PeerClient::replicate(std::uint32_t shard,
                             const VersionedRule& entry) {
  xdr::Encoder enc;
  enc.put_u32(shard);
  encode_versioned(enc, entry);
  GL_ASSIGN_OR_RETURN(
      const Buffer reply,
      rpc_.call(method_id(PeerMethod::kReplicate), enc.buffer()));
  (void)reply;
  return Status::ok();
}

Result<std::pair<ShardMap, std::vector<ReplicaAddress>>>
PeerClient::get_map() {
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(PeerMethod::kGetMap), {}));
  xdr::Decoder dec(reply);
  std::pair<ShardMap, std::vector<ReplicaAddress>> result;
  GL_ASSIGN_OR_RETURN(result.first, ShardMap::decode(dec));
  GL_ASSIGN_OR_RETURN(
      result.second,
      dec.vector<ReplicaAddress>(
          [](xdr::Decoder& d) -> Result<ReplicaAddress> {
            ReplicaAddress address;
            GL_ASSIGN_OR_RETURN(address.name, d.string());
            GL_ASSIGN_OR_RETURN(const std::string text, d.string());
            GL_ASSIGN_OR_RETURN(address.endpoint, net::Endpoint::parse(text));
            return address;
          }));
  return result;
}

// ---------------------------------------------------------------------------
// ReplicaNode

ReplicaNode::ReplicaNode(std::string name, net::Transport& transport,
                         net::Endpoint bind)
    : name_(std::move(name)),
      transport_(transport),
      store_(name_),
      rpc_(transport, std::move(bind)) {
  register_handlers();
}

void ReplicaNode::install(ShardMap map,
                          std::vector<ReplicaAddress> roster) {
  MutexLock lock(mu_);
  if (map.epoch <= map_.epoch) return;
  map_ = std::move(map);
  peers_.clear();
  for (ReplicaAddress& member : roster) {
    peers_[std::move(member.name)].endpoint = std::move(member.endpoint);
  }
  bump_version();
}

ShardMap ReplicaNode::map() const {
  MutexLock lock(mu_);
  return map_;
}

Result<std::shared_ptr<PeerClient>> ReplicaNode::sync_peer(
    const std::string& peer) {
  if (fault::Plan* plan = fault::armed(); plan != nullptr) {
    const fault::Decision severed =
        plan->consult(fault::Site::kGnsSync, sync_pair_key(name_, peer));
    if (severed.action == fault::Decision::Action::kSever ||
        severed.action == fault::Decision::Action::kFail) {
      return unavailable(
          strings::cat("injected partition: gns ", name_, "-", peer));
    }
    if (severed.action == fault::Decision::Action::kDelay) {
      fault::sleep_for_model(severed.delay);
    }
    // A die@gns replica neither sends nor receives sync: it both misses
    // writes and cannot pull repairs until the plan is disarmed.
    GL_RETURN_IF_ERROR(replica_alive(name_));
    GL_RETURN_IF_ERROR(replica_alive(peer));
  }
  MutexLock lock(mu_);
  const auto it = peers_.find(peer);
  if (it == peers_.end()) {
    return not_found(strings::cat("gns: unknown peer ", peer));
  }
  if (it->second.client == nullptr) {
    it->second.client =
        std::make_shared<PeerClient>(transport_, it->second.endpoint);
  }
  return it->second.client;
}

bool ReplicaNode::merge_entry(std::uint32_t shard,
                              const VersionedRule& entry,
                              bool count_repair) {
  if (!store_.apply(shard, entry)) return false;
  bump_version();
  if (count_repair) MultiMasterMetrics::get().repaired.add();
  return true;
}

Result<std::uint64_t> ReplicaNode::put(MappingRule rule, bool tombstone) {
  const ShardMap map = this->map();
  const std::uint32_t shard =
      map.shard_of_rule(rule.host_pattern, rule.path_pattern);
  if (!map.owns(name_, shard)) {
    return failed_precondition(strings::cat(
        "gns: ", name_, " does not own the shard of (", rule.host_pattern,
        ", ", rule.path_pattern, ") at epoch ", map.epoch));
  }
  const VersionedRule entry =
      store_.coordinate(shard, std::move(rule), tombstone);
  bump_version();
  for (const std::string& owner : map.owners(shard)) {
    if (owner == name_) continue;
    const Result<std::shared_ptr<PeerClient>> client = sync_peer(owner);
    if (!client.is_ok() || !(*client)->replicate(shard, entry).is_ok()) {
      MultiMasterMetrics::get().replicate_failed.add();
    }
  }
  return map.epoch;
}

Result<std::uint64_t> ReplicaNode::sync_with(
    const std::string& peer, const std::vector<std::uint32_t>& shards,
    bool count_repair) {
  GL_ASSIGN_OR_RETURN(const std::shared_ptr<PeerClient> client,
                      sync_peer(peer));
  GL_ASSIGN_OR_RETURN(const auto peer_digests, client->digests());
  const std::map<std::uint32_t, std::uint64_t> theirs(peer_digests.begin(),
                                                      peer_digests.end());
  std::uint64_t repaired = 0;
  for (const std::uint32_t shard : shards) {
    const auto it = theirs.find(shard);
    const std::uint64_t their_digest = it == theirs.end() ? 0 : it->second;
    if (store_.digest(shard) == their_digest) continue;
    GL_ASSIGN_OR_RETURN(
        const std::vector<VersionedRule> entries,
        client->exchange(shard, store_.entries(shard)));
    for (const VersionedRule& entry : entries) {
      if (merge_entry(shard, entry, count_repair)) ++repaired;
    }
  }
  return repaired;
}

void ReplicaNode::drop_shard(std::uint32_t shard) {
  store_.drop_shard(shard);
  bump_version();
}

LookupReply ReplicaNode::resolve(std::string_view host,
                                 std::string_view path) const {
  // The version is read first: a write landing mid-lookup then shows up
  // as a version change on the client's next miss, never the reverse.
  LookupReply reply;
  reply.version = version();
  std::uint32_t shard;
  {
    MutexLock lock(mu_);
    shard = map_.shard_of(host, path);
    reply.epoch = map_.epoch;
  }
  reply.mapping = store_.lookup(shard, host, path);
  return reply;
}

void ReplicaNode::register_handlers() {
  rpc_.register_method(
      method_id(PeerMethod::kLookup),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string host, dec.string());
        GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
        const LookupReply reply = resolve(host, path);
        xdr::Encoder enc;
        enc.put_u64(reply.version);
        enc.put_u64(reply.epoch);
        enc.put_bool(reply.mapping.has_value());
        if (reply.mapping) encode_mapping(enc, *reply.mapping);
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(PeerMethod::kPut),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(MappingRule rule, decode_rule(dec));
        GL_ASSIGN_OR_RETURN(const bool tombstone, dec.boolean());
        GL_ASSIGN_OR_RETURN(const std::uint64_t epoch,
                            put(std::move(rule), tombstone));
        xdr::Encoder enc;
        enc.put_u64(epoch);
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(PeerMethod::kReplicate),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::uint32_t shard, dec.u32());
        GL_ASSIGN_OR_RETURN(const VersionedRule entry,
                            decode_versioned(dec));
        merge_entry(shard, entry, /*count_repair=*/false);
        return Buffer{};
      });
  rpc_.register_method(
      method_id(PeerMethod::kDigests),
      [this](const Buffer&, const net::RpcContext&) -> Result<Buffer> {
        const ShardMap map = this->map();
        const std::vector<std::uint32_t> shards = map.shards_of(name_);
        xdr::Encoder enc;
        enc.put_u32(static_cast<std::uint32_t>(shards.size()));
        for (const std::uint32_t shard : shards) {
          enc.put_u32(shard);
          enc.put_u64(store_.digest(shard));
        }
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(PeerMethod::kExchange),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::uint32_t shard, dec.u32());
        GL_ASSIGN_OR_RETURN(
            const std::vector<VersionedRule> entries,
            dec.vector<VersionedRule>(
                [](xdr::Decoder& d) { return decode_versioned(d); }));
        // Snapshot before merging so the caller receives exactly what
        // this side had — both then converge by applying the other's
        // pre-exchange state.
        const std::vector<VersionedRule> mine = store_.entries(shard);
        for (const VersionedRule& entry : entries) {
          merge_entry(shard, entry, /*count_repair=*/true);
        }
        xdr::Encoder enc;
        enc.put_vector(mine,
                       [](xdr::Encoder& e, const VersionedRule& entry) {
                         encode_versioned(e, entry);
                       });
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(PeerMethod::kGetMap),
      [this](const Buffer&, const net::RpcContext&) -> Result<Buffer> {
        xdr::Encoder enc;
        MutexLock lock(mu_);
        map_.encode(enc);
        enc.put_u32(static_cast<std::uint32_t>(peers_.size()));
        for (const auto& [peer, entry] : peers_) {
          enc.put_string(peer);
          enc.put_string(entry.endpoint.to_string());
        }
        return std::move(enc).finish();
      });
}

}  // namespace griddles::gns
