#include "src/gridbuffer/server.h"

#include <algorithm>
#include <chrono>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/span.h"
#include "src/xdr/codec.h"

namespace griddles::gridbuffer {

namespace {
/// One kRelayWrite request: the receiver's subtree, the channel config
/// its machine opens locally, and the block.
Buffer relay_write_request(const multicast::RelayNode& node,
                           const ChannelConfig& config, std::uint64_t offset,
                           const Buffer& data) {
  xdr::Encoder enc;
  multicast::encode_node(enc, node);
  encode_channel_config(enc, config);
  enc.put_u64(offset);
  return std::move(enc).finish_with_bytes(data);
}

Buffer relay_close_request(const multicast::RelayNode& node,
                           const ChannelConfig& config) {
  xdr::Encoder enc;
  multicast::encode_node(enc, node);
  encode_channel_config(enc, config);
  return std::move(enc).finish();
}

/// Caps a blocking wait (ms; 0 = forever) to the ambient end-to-end
/// budget so an expired request never parks past its caller's patience.
std::uint64_t clamp_to_budget_ms(std::uint64_t deadline_ms) {
  const std::optional<Duration> left = remaining_budget();
  if (!left) return deadline_ms;
  const auto left_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(*left).count();
  const std::uint64_t budget_ms =
      left_ms <= 0 ? 1 : static_cast<std::uint64_t>(left_ms);
  return deadline_ms == 0 ? budget_ms : std::min(deadline_ms, budget_ms);
}
}  // namespace

void encode_channel_config(xdr::Encoder& enc, const ChannelConfig& config) {
  enc.put_u32(config.block_size);
  enc.put_bool(config.cache_enabled);
  enc.put_u32(config.expected_readers);
  enc.put_u64(config.max_buffered_bytes);
  enc.put_u64(config.max_unread_bytes);
}

Result<ChannelConfig> decode_channel_config(xdr::Decoder& dec) {
  ChannelConfig config;
  GL_ASSIGN_OR_RETURN(config.block_size, dec.u32());
  GL_ASSIGN_OR_RETURN(config.cache_enabled, dec.boolean());
  GL_ASSIGN_OR_RETURN(config.expected_readers, dec.u32());
  GL_ASSIGN_OR_RETURN(config.max_buffered_bytes, dec.u64());
  GL_ASSIGN_OR_RETURN(config.max_unread_bytes, dec.u64());
  if (config.block_size == 0) {
    return invalid_argument("channel block size must be positive");
  }
  return config;
}

GridBufferServer::GridBufferServer(std::string cache_dir,
                                   net::Transport& transport,
                                   net::Endpoint bind,
                                   net::WireFormat format)
    : store_(std::move(cache_dir)),
      rpc_(transport, std::move(bind), format),
      forwarder_(transport) {
  register_handlers();
}

void GridBufferServer::set_broadcast(
    const std::string& channel, const ChannelConfig& config,
    std::vector<multicast::RelayNode> children) {
  MutexLock lock(mu_);
  broadcast_[channel] = std::make_shared<const Broadcast>(
      Broadcast{config, std::move(children)});
}

std::shared_ptr<const GridBufferServer::Broadcast>
GridBufferServer::broadcast(const std::string& channel) const {
  MutexLock lock(mu_);
  const auto it = broadcast_.find(channel);
  return it == broadcast_.end() ? nullptr : it->second;
}

GridBufferServer::~GridBufferServer() { stop(); }

void GridBufferServer::stop() {
  store_.shutdown_all();
  rpc_.stop();
}

void GridBufferServer::register_handlers() {
  rpc_.register_method(
      method_id(Method::kOpenWrite),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string channel, dec.string());
        GL_ASSIGN_OR_RETURN(const ChannelConfig config,
                            decode_channel_config(dec));
        GL_ASSIGN_OR_RETURN(auto chan, store_.open(channel, config));
        if (chan->writer_closed()) {
          return failed_precondition(
              strings::cat("channel ", channel, " was already closed"));
        }
        return Buffer{};
      });
  rpc_.register_method(
      method_id(Method::kWrite),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string channel, dec.string());
        GL_ASSIGN_OR_RETURN(const std::uint64_t offset, dec.u64());
        GL_ASSIGN_OR_RETURN(const Buffer data, dec.bytes());
        GL_ASSIGN_OR_RETURN(auto chan, store_.find(channel));
        GL_RETURN_IF_ERROR(chan->write(offset, data));
        // Broadcast channels also fan the run out down the relay tree, as
        // one call per child. The forwards block outside the lock.
        const std::shared_ptr<const Broadcast> route = broadcast(channel);
        if (route != nullptr) {
          std::vector<std::string> dead;
          multicast::relay_block(
              forwarder_, route->children, method_id(Method::kRelayWrite),
              [&](const multicast::RelayNode& child) {
                return relay_write_request(child, route->config, offset,
                                           data);
              },
              dead);
          if (!dead.empty()) {
            GL_LOG(kWarn, "grid buffer broadcast ", channel, ": ",
                   dead.size(), " machine(s) unreachable; their local ",
                   "readers will miss this run");
          }
        }
        return Buffer{};
      });
  rpc_.register_method(
      method_id(Method::kCloseWrite),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string channel, dec.string());
        GL_ASSIGN_OR_RETURN(auto chan, store_.find(channel));
        chan->close_writer();
        const std::shared_ptr<const Broadcast> route = broadcast(channel);
        if (route != nullptr) {
          std::vector<std::string> dead;
          multicast::relay_block(
              forwarder_, route->children, method_id(Method::kRelayClose),
              [&](const multicast::RelayNode& child) {
                return relay_close_request(child, route->config);
              },
              dead);
          if (!dead.empty()) {
            GL_LOG(kWarn, "grid buffer broadcast ", channel, ": close did ",
                   "not reach ", dead.size(), " machine(s)");
          }
        }
        return Buffer{};
      });
  rpc_.register_method(
      method_id(Method::kOpenRead),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string channel, dec.string());
        GL_ASSIGN_OR_RETURN(const ChannelConfig config,
                            decode_channel_config(dec));
        GL_ASSIGN_OR_RETURN(auto chan, store_.open(channel, config));
        xdr::Encoder enc;
        enc.put_u64(chan->add_reader());
        return std::move(enc).finish();
      });
  // lint: no-admission (read-blocks-until-written: a reader legitimately
  // parks here until its writer produces data; holding admission capacity
  // for the stall would starve the very writes that unblock it)
  rpc_.register_method_unadmitted(
      method_id(Method::kRead),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string channel, dec.string());
        GL_ASSIGN_OR_RETURN(const std::uint64_t reader_id, dec.u64());
        GL_ASSIGN_OR_RETURN(const std::uint64_t offset, dec.u64());
        GL_ASSIGN_OR_RETURN(const std::uint32_t length, dec.u32());
        GL_ASSIGN_OR_RETURN(const std::uint64_t deadline_ms, dec.u64());
        GL_ASSIGN_OR_RETURN(auto chan, store_.find(channel));
        auto result = chan->read(reader_id, offset, length,
                                 clamp_to_budget_ms(deadline_ms));
        if (!result.is_ok() &&
            result.status().code() == ErrorCode::kTimeout &&
            deadline_expired()) {
          return deadline_exceeded(strings::cat(
              "channel ", channel, ": budget exhausted blocked at offset ",
              offset));
        }
        GL_RETURN_IF_ERROR(result.status());
        xdr::Encoder enc;
        enc.put_bool(result->eof);
        enc.put_u64(result->frontier);
        return std::move(enc).finish_with_bytes(std::move(result->data));
      });
  rpc_.register_method(
      method_id(Method::kCloseRead),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string channel, dec.string());
        GL_ASSIGN_OR_RETURN(const std::uint64_t reader_id, dec.u64());
        GL_ASSIGN_OR_RETURN(auto chan, store_.find(channel));
        chan->remove_reader(reader_id);
        return Buffer{};
      });
  // lint: no-admission (wait_for_eof parks until the writer closes — the
  // same read-blocks-until-written semantics as kRead)
  rpc_.register_method_unadmitted(
      method_id(Method::kStat),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string channel, dec.string());
        GL_ASSIGN_OR_RETURN(const bool wait_for_eof, dec.boolean());
        GL_ASSIGN_OR_RETURN(const std::uint64_t deadline_ms, dec.u64());
        GL_ASSIGN_OR_RETURN(auto chan, store_.find(channel));
        auto result = chan->stat(wait_for_eof, clamp_to_budget_ms(deadline_ms));
        if (!result.is_ok() &&
            result.status().code() == ErrorCode::kTimeout &&
            deadline_expired()) {
          return deadline_exceeded(strings::cat(
              "channel ", channel, ": budget exhausted awaiting eof"));
        }
        GL_RETURN_IF_ERROR(result.status());
        xdr::Encoder enc;
        enc.put_bool(result->eof);
        enc.put_u64(result->frontier);
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(Method::kRemove),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string channel, dec.string());
        GL_RETURN_IF_ERROR(store_.remove(channel));
        return Buffer{};
      });
  rpc_.register_method(
      method_id(Method::kRelayWrite),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const multicast::RelayNode node,
                            multicast::decode_node(dec));
        GL_ASSIGN_OR_RETURN(ChannelConfig config,
                            decode_channel_config(dec));
        GL_ASSIGN_OR_RETURN(const std::uint64_t offset, dec.u64());
        GL_ASSIGN_OR_RETURN(const Buffer data, dec.bytes());

        const std::string host = rpc_.endpoint().host;
        obs::Span span(obs::SpanKind::kRelay, strings::cat("relay:", host));
        span.add_attr("channel", node.path);
        span.add_attr("children", strings::cat(node.children.size()));

        const std::uint64_t cumulative =
            relayed_bytes_.fetch_add(data.size(),
                                     std::memory_order_relaxed) +
            data.size();
        GL_RETURN_IF_ERROR(
            multicast::consult_relay_fault(host, cumulative));

        // Same channel, node-local reader count: the store only requires
        // block_size/cache agreement across machines.
        if (node.readers != 0) config.expected_readers = node.readers;
        GL_ASSIGN_OR_RETURN(auto chan, store_.open(node.path, config));
        GL_RETURN_IF_ERROR(chan->write(offset, data));

        std::vector<std::string> dead;
        multicast::relay_block(
            forwarder_, node.children, method_id(Method::kRelayWrite),
            [&](const multicast::RelayNode& child) {
              return relay_write_request(child, config, offset, data);
            },
            dead);
        xdr::Encoder enc;
        multicast::encode_dead_hosts(enc, dead);
        return std::move(enc).finish();
      });
  rpc_.register_method(
      method_id(Method::kRelayClose),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const multicast::RelayNode node,
                            multicast::decode_node(dec));
        GL_ASSIGN_OR_RETURN(ChannelConfig config,
                            decode_channel_config(dec));

        const std::string host = rpc_.endpoint().host;
        GL_RETURN_IF_ERROR(multicast::consult_relay_fault(
            host, relayed_bytes_.load(std::memory_order_relaxed)));

        if (node.readers != 0) config.expected_readers = node.readers;
        GL_ASSIGN_OR_RETURN(auto chan, store_.open(node.path, config));
        chan->close_writer();

        std::vector<std::string> dead;
        multicast::relay_block(
            forwarder_, node.children, method_id(Method::kRelayClose),
            [&](const multicast::RelayNode& child) {
              return relay_close_request(child, config);
            },
            dead);
        xdr::Encoder enc;
        multicast::encode_dead_hosts(enc, dead);
        return std::move(enc).finish();
      });
}

}  // namespace griddles::gridbuffer
