#include "src/gns/service.h"

#include "src/common/strings.h"

namespace griddles::gns {

namespace {
constexpr std::uint16_t method_id(Method m) {
  return static_cast<std::uint16_t>(m);
}
}  // namespace

GnsServer::GnsServer(Database& db, net::Transport& transport,
                     net::Endpoint bind, net::WireFormat format)
    : db_(db), rpc_(transport, std::move(bind), format) {
  rpc_.register_method(
      method_id(Method::kLookup),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string host, dec.string());
        GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
        const std::optional<FileMapping> mapping = db_.lookup(host, path);
        xdr::Encoder enc;
        enc.put_u64(db_.version());
        enc.put_bool(mapping.has_value());
        if (mapping) encode_mapping(enc, *mapping);
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(Method::kAddRule),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(MappingRule rule, decode_rule(dec));
        db_.add_rule(std::move(rule));
        return Buffer{};
      });
  rpc_.register_method(
      method_id(Method::kRemoveRules),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string host_pattern, dec.string());
        GL_ASSIGN_OR_RETURN(const std::string path_pattern, dec.string());
        const std::size_t removed =
            db_.remove_rules(host_pattern, path_pattern);
        xdr::Encoder enc;
        enc.put_u64(removed);
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(Method::kListRules),
      [this](const Buffer&, const net::RpcContext&) -> Result<Buffer> {
        xdr::Encoder enc;
        enc.put_vector(db_.rules(),
                       [](xdr::Encoder& e, const MappingRule& rule) {
                         encode_rule(e, rule);
                       });
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(Method::kVersion),
      [this](const Buffer&, const net::RpcContext&) -> Result<Buffer> {
        xdr::Encoder enc;
        enc.put_u64(db_.version());
        return std::move(enc).finish();
      });
}

GnsClient::GnsClient(net::Transport& transport, net::Endpoint server,
                     net::WireFormat format,
                     std::chrono::milliseconds cache_ttl)
    : rpc_(transport, std::move(server), format), cache_ttl_(cache_ttl) {}

Result<std::optional<FileMapping>> GnsClient::lookup(const std::string& host,
                                                     const std::string& path) {
  const auto key = std::make_pair(host, path);
  {
    MutexLock lock(mu_);
    if (cache_ttl_.count() > 0 && have_version_ &&
        WallClock::now() - validated_at_ < cache_ttl_) {
      const auto it = cache_.find(key);
      if (it != cache_.end()) {
        ++cache_hits_;
        return it->second;
      }
    }
  }

  xdr::Encoder enc;
  enc.put_string(host);
  enc.put_string(path);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(Method::kLookup), enc.buffer()));
  xdr::Decoder dec(reply);
  GL_ASSIGN_OR_RETURN(const std::uint64_t version, dec.u64());
  GL_ASSIGN_OR_RETURN(const bool present, dec.boolean());
  std::optional<FileMapping> mapping;
  if (present) {
    GL_ASSIGN_OR_RETURN(mapping, decode_mapping(dec));
  }

  MutexLock lock(mu_);
  if (!have_version_ || version != cached_version_) {
    cache_.clear();
    cached_version_ = version;
    have_version_ = true;
  }
  validated_at_ = WallClock::now();
  cache_[key] = mapping;
  return mapping;
}

Status GnsClient::add_rule(const MappingRule& rule) {
  xdr::Encoder enc;
  encode_rule(enc, rule);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(Method::kAddRule), enc.buffer()));
  (void)reply;
  invalidate_cache();
  return Status::ok();
}

Result<std::size_t> GnsClient::remove_rules(const std::string& host_pattern,
                                            const std::string& path_pattern) {
  xdr::Encoder enc;
  enc.put_string(host_pattern);
  enc.put_string(path_pattern);
  GL_ASSIGN_OR_RETURN(
      const Buffer reply,
      rpc_.call(method_id(Method::kRemoveRules), enc.buffer()));
  xdr::Decoder dec(reply);
  GL_ASSIGN_OR_RETURN(const std::uint64_t removed, dec.u64());
  invalidate_cache();
  return static_cast<std::size_t>(removed);
}

Result<std::vector<MappingRule>> GnsClient::list_rules() {
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(Method::kListRules), {}));
  xdr::Decoder dec(reply);
  return dec.vector<MappingRule>(
      [](xdr::Decoder& d) { return decode_rule(d); });
}

Result<std::uint64_t> GnsClient::version() {
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(Method::kVersion), {}));
  xdr::Decoder dec(reply);
  return dec.u64();
}

void GnsClient::invalidate_cache() {
  MutexLock lock(mu_);
  cache_.clear();
  have_version_ = false;
}

std::uint64_t GnsClient::cache_hits() const {
  MutexLock lock(mu_);
  return cache_hits_;
}

}  // namespace griddles::gns
