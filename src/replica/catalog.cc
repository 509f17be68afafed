#include "src/replica/catalog.h"

#include <algorithm>

#include "src/common/strings.h"

namespace griddles::replica {

void encode_replica(xdr::Encoder& enc, const PhysicalReplica& replica) {
  enc.put_string(replica.host);
  enc.put_string(replica.server_endpoint);
  enc.put_string(replica.path);
  enc.put_u64(replica.size);
  enc.put_u64(replica.checksum);
}

Result<PhysicalReplica> decode_replica(xdr::Decoder& dec) {
  PhysicalReplica replica;
  GL_ASSIGN_OR_RETURN(replica.host, dec.string());
  GL_ASSIGN_OR_RETURN(replica.server_endpoint, dec.string());
  GL_ASSIGN_OR_RETURN(replica.path, dec.string());
  GL_ASSIGN_OR_RETURN(replica.size, dec.u64());
  GL_ASSIGN_OR_RETURN(replica.checksum, dec.u64());
  return replica;
}

void Catalog::add(const std::string& logical_name, PhysicalReplica replica) {
  MutexLock lock(mu_);
  auto& copies = replicas_[logical_name];
  const auto it = std::find_if(
      copies.begin(), copies.end(),
      [&](const PhysicalReplica& r) { return r.host == replica.host; });
  if (it != copies.end()) {
    *it = std::move(replica);
  } else {
    copies.push_back(std::move(replica));
  }
}

bool Catalog::remove(const std::string& logical_name,
                     const std::string& host) {
  MutexLock lock(mu_);
  const auto entry = replicas_.find(logical_name);
  if (entry == replicas_.end()) return false;
  auto& copies = entry->second;
  const auto it = std::remove_if(
      copies.begin(), copies.end(),
      [&](const PhysicalReplica& r) { return r.host == host; });
  const bool removed = it != copies.end();
  copies.erase(it, copies.end());
  if (copies.empty()) replicas_.erase(entry);
  return removed;
}

Result<std::vector<PhysicalReplica>> Catalog::lookup(
    const std::string& logical_name) const {
  MutexLock lock(mu_);
  const auto it = replicas_.find(logical_name);
  if (it == replicas_.end() || it->second.empty()) {
    return not_found(
        strings::cat("no replicas registered for '", logical_name, "'"));
  }
  return it->second;
}

std::vector<std::string> Catalog::logical_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(replicas_.size());
  for (const auto& [name, copies] : replicas_) names.push_back(name);
  return names;
}

namespace {
constexpr std::uint16_t method_id(Method m) {
  return static_cast<std::uint16_t>(m);
}
}  // namespace

CatalogServer::CatalogServer(Catalog& catalog, net::Transport& transport,
                             net::Endpoint bind)
    : catalog_(catalog), rpc_(transport, std::move(bind)) {
  rpc_.register_method(
      method_id(Method::kLookup),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string logical, dec.string());
        GL_ASSIGN_OR_RETURN(const std::vector<PhysicalReplica> copies,
                            catalog_.lookup(logical));
        xdr::Encoder enc;
        enc.put_vector(copies,
                       [](xdr::Encoder& e, const PhysicalReplica& r) {
                         encode_replica(e, r);
                       });
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(Method::kAdd),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string logical, dec.string());
        GL_ASSIGN_OR_RETURN(PhysicalReplica replica, decode_replica(dec));
        catalog_.add(logical, std::move(replica));
        return Buffer{};
      });
  rpc_.register_method(
      method_id(Method::kRemove),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string logical, dec.string());
        GL_ASSIGN_OR_RETURN(const std::string host, dec.string());
        xdr::Encoder enc;
        enc.put_bool(catalog_.remove(logical, host));
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(Method::kList),
      [this](const Buffer&, const net::RpcContext&) -> Result<Buffer> {
        xdr::Encoder enc;
        enc.put_vector(catalog_.logical_names(),
                       [](xdr::Encoder& e, const std::string& name) {
                         e.put_string(name);
                       });
        return std::move(enc).finish();
      });
}

CatalogClient::CatalogClient(net::Transport& transport, net::Endpoint server)
    : rpc_(transport, std::move(server)) {}

Result<std::vector<PhysicalReplica>> CatalogClient::lookup(
    const std::string& logical_name) {
  xdr::Encoder enc;
  enc.put_string(logical_name);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(Method::kLookup), enc.buffer()));
  xdr::Decoder dec(reply);
  return dec.vector<PhysicalReplica>(
      [](xdr::Decoder& d) { return decode_replica(d); });
}

Status CatalogClient::add(const std::string& logical_name,
                          const PhysicalReplica& replica) {
  xdr::Encoder enc;
  enc.put_string(logical_name);
  encode_replica(enc, replica);
  return rpc_.call(method_id(Method::kAdd), enc.buffer()).status();
}

Status CatalogClient::remove(const std::string& logical_name,
                             const std::string& host) {
  xdr::Encoder enc;
  enc.put_string(logical_name);
  enc.put_string(host);
  return rpc_.call(method_id(Method::kRemove), enc.buffer()).status();
}

Result<std::vector<std::string>> CatalogClient::list() {
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(Method::kList), {}));
  xdr::Decoder dec(reply);
  return dec.vector<std::string>(
      [](xdr::Decoder& d) { return d.string(); });
}

}  // namespace griddles::replica
