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
  obs::Counter& write_forwarded;   // puts relayed to the actual owner
  obs::Counter& repaired;          // entries fixed by anti-entropy

  static MultiMasterMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static MultiMasterMetrics metrics{
        registry.counter("gns.replicate.failed"),
        registry.counter("gns.write.forwarded"),
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
                                      bool tombstone, bool allow_forward) {
  xdr::Encoder enc;
  encode_rule(enc, rule);
  enc.put_bool(tombstone);
  enc.put_bool(allow_forward);
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

void ReplicaNode::set_map(ShardMap map) {
  MutexLock lock(mu_);
  if (map.epoch < map_.epoch) return;
  if (map.epoch == map_.epoch && map == map_) return;
  map_ = std::move(map);
  bump_version();
}

ShardMap ReplicaNode::map() const {
  MutexLock lock(mu_);
  return map_;
}

void ReplicaNode::set_peer(const std::string& peer, net::Endpoint endpoint) {
  MutexLock lock(mu_);
  Peer& entry = peers_[peer];
  if (entry.endpoint != endpoint) entry.client.reset();
  entry.endpoint = std::move(endpoint);
}

void ReplicaNode::remove_peer(const std::string& peer) {
  MutexLock lock(mu_);
  peers_.erase(peer);
}

std::vector<ReplicaAddress> ReplicaNode::roster() const {
  std::vector<ReplicaAddress> result;
  result.push_back({name_, rpc_.endpoint()});
  MutexLock lock(mu_);
  result.reserve(peers_.size() + 1);
  for (const auto& [peer, entry] : peers_) {
    result.push_back({peer, entry.endpoint});
  }
  return result;
}

std::shared_ptr<PeerClient> ReplicaNode::peer_client(
    const std::string& peer) {
  MutexLock lock(mu_);
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return nullptr;
  if (it->second.client == nullptr) {
    it->second.client =
        std::make_shared<PeerClient>(transport_, it->second.endpoint);
  }
  return it->second.client;
}

Status ReplicaNode::consult_sync_fault(const std::string& peer) {
  fault::Plan* plan = fault::armed();
  if (plan == nullptr) return Status::ok();
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
  for (const std::string* end : {&name_, &peer}) {
    const fault::Decision verdict =
        plan->consult(fault::Site::kGns, *end);
    if (verdict.action == fault::Decision::Action::kKill ||
        verdict.action == fault::Decision::Action::kFail) {
      return unavailable(
          strings::cat("injected fault: gns ", *end, " is down"));
    }
    if (verdict.action == fault::Decision::Action::kDelay) {
      fault::sleep_for_model(verdict.delay);
    }
  }
  return Status::ok();
}

ReplicaStore::Applied ReplicaNode::merge_entry(std::uint32_t shard,
                                               const VersionedRule& entry,
                                               bool count_repair) {
  const ReplicaStore::Applied applied = store_.apply(shard, entry);
  if (applied == ReplicaStore::Applied::kNew ||
      applied == ReplicaStore::Applied::kConflict) {
    bump_version();
    if (count_repair) MultiMasterMetrics::get().repaired.add();
  }
  return applied;
}

Result<std::uint64_t> ReplicaNode::put(MappingRule rule, bool tombstone,
                                       bool allow_forward) {
  const ShardMap map = this->map();
  const std::uint32_t shard =
      map.shard_of_rule(rule.host_pattern, rule.path_pattern);
  if (map.owns(name_, shard)) {
    const VersionedRule entry =
        store_.coordinate(shard, std::move(rule), tombstone);
    bump_version();
    for (const std::string& owner : map.owners(shard)) {
      if (owner == name_) continue;
      if (const Status st = consult_sync_fault(owner); !st.is_ok()) {
        MultiMasterMetrics::get().replicate_failed.add();
        continue;
      }
      const std::shared_ptr<PeerClient> client = peer_client(owner);
      if (client == nullptr) {
        MultiMasterMetrics::get().replicate_failed.add();
        continue;
      }
      if (const Status st = client->replicate(shard, entry); !st.is_ok()) {
        MultiMasterMetrics::get().replicate_failed.add();
      }
    }
    return map.epoch;
  }
  if (!allow_forward) {
    return failed_precondition(strings::cat(
        "gns: ", name_, " does not own the shard of (", rule.host_pattern,
        ", ", rule.path_pattern, ") at epoch ", map.epoch));
  }
  // Stale-map client (or handoff window): relay to a current owner. The
  // forwarded hop sends allow_forward=false so a map disagreement
  // between two nodes cannot ping-pong.
  Status last = unavailable("gns: no owner reachable for shard");
  for (const std::string& owner : map.owners(shard)) {
    if (owner == name_) continue;
    if (Status st = consult_sync_fault(owner); !st.is_ok()) {
      last = std::move(st);
      continue;
    }
    const std::shared_ptr<PeerClient> client = peer_client(owner);
    if (client == nullptr) {
      last = unavailable(strings::cat("gns: unknown peer ", owner));
      continue;
    }
    Result<std::uint64_t> forwarded = client->put(rule, tombstone, false);
    if (forwarded.is_ok()) {
      MultiMasterMetrics::get().write_forwarded.add();
      return forwarded;
    }
    last = forwarded.status();
  }
  return last;
}

Result<std::uint64_t> ReplicaNode::sync_with(const std::string& peer) {
  GL_RETURN_IF_ERROR(consult_sync_fault(peer));
  const std::shared_ptr<PeerClient> client = peer_client(peer);
  if (client == nullptr) {
    return not_found(strings::cat("gns: unknown peer ", peer));
  }
  GL_ASSIGN_OR_RETURN(const auto peer_digests, client->digests());
  std::map<std::uint32_t, std::uint64_t> theirs(peer_digests.begin(),
                                                peer_digests.end());
  const ShardMap map = this->map();
  std::uint64_t repaired = 0;
  for (const std::uint32_t shard : map.shards_of(name_)) {
    if (!map.owns(peer, shard)) continue;
    const auto it = theirs.find(shard);
    const std::uint64_t their_digest = it == theirs.end() ? 0 : it->second;
    if (store_.digest(shard) == their_digest) continue;
    GL_ASSIGN_OR_RETURN(
        const std::vector<VersionedRule> entries,
        client->exchange(shard, store_.entries(shard)));
    for (const VersionedRule& entry : entries) {
      const ReplicaStore::Applied applied =
          merge_entry(shard, entry, /*count_repair=*/true);
      if (applied == ReplicaStore::Applied::kNew ||
          applied == ReplicaStore::Applied::kConflict) {
        ++repaired;
      }
    }
  }
  return repaired;
}

Status ReplicaNode::sync_shard_from(const std::string& peer,
                                    std::uint32_t shard) {
  GL_RETURN_IF_ERROR(consult_sync_fault(peer));
  const std::shared_ptr<PeerClient> client = peer_client(peer);
  if (client == nullptr) {
    return not_found(strings::cat("gns: unknown peer ", peer));
  }
  GL_ASSIGN_OR_RETURN(const std::vector<VersionedRule> entries,
                      client->exchange(shard, store_.entries(shard)));
  for (const VersionedRule& entry : entries) {
    merge_entry(shard, entry, /*count_repair=*/false);
  }
  return Status::ok();
}

void ReplicaNode::schedule_drop(std::uint32_t shard,
                                WallClock::time_point after) {
  MutexLock lock(mu_);
  pending_drops_.push_back({shard, after});
}

void ReplicaNode::gc_dropped_shards() {
  std::vector<std::uint32_t> due;
  {
    MutexLock lock(mu_);
    const WallClock::time_point now = WallClock::now();
    auto keep = pending_drops_.begin();
    for (const PendingDrop& drop : pending_drops_) {
      if (drop.after <= now) {
        due.push_back(drop.shard);
      } else {
        *keep++ = drop;
      }
    }
    pending_drops_.erase(keep, pending_drops_.end());
  }
  for (const std::uint32_t shard : due) store_.drop_shard(shard);
  if (!due.empty()) bump_version();
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
        GL_ASSIGN_OR_RETURN(const bool allow_forward, dec.boolean());
        GL_ASSIGN_OR_RETURN(
            const std::uint64_t epoch,
            put(std::move(rule), tombstone, allow_forward));
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
        const ReplicaStore::Applied applied =
            merge_entry(shard, entry, /*count_repair=*/false);
        xdr::Encoder enc;
        enc.put_u8(static_cast<std::uint8_t>(applied));
        return std::move(enc).finish();
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
        map().encode(enc);
        enc.put_vector(roster(),
                       [](xdr::Encoder& e, const ReplicaAddress& address) {
                         e.put_string(address.name);
                         e.put_string(address.endpoint.to_string());
                       });
        return std::move(enc).finish();
      });
}

}  // namespace griddles::gns
