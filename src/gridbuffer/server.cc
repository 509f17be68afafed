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
                           const ChannelConfig& config,
                           const StreamExtent& extent, bool failed) {
  xdr::Encoder enc;
  multicast::encode_node(enc, node);
  encode_channel_config(enc, config);
  enc.put_u64(extent.frontier);
  enc.put_u64(extent.stored);
  enc.put_bool(failed);
  return std::move(enc).finish();
}

/// How long a relayed close waits for a run to land before it gives up
/// on a short copy. Only a close that overtook its runs waits: one that
/// came down the tree follows every run the parent forwarded.
constexpr std::uint64_t kCloseIdleMs = 2000;

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
  static const auto plain = std::make_shared<const Broadcast>();
  MutexLock lock(mu_);
  const auto it = broadcast_.find(channel);
  return it == broadcast_.end() ? plain : it->second;
}

Status GridBufferServer::store_and_forward(Channel& chan,
                                           const Broadcast& hop,
                                           std::uint64_t offset,
                                           const Buffer& data,
                                           std::vector<std::string>& dead) {
  if (const Status written = chan.write(offset, data); !written.is_ok()) {
    // No close will come to drop a failed stream's fan-out.
    if (chan.writer_failed()) settle_fan_out(chan.name(), dead);
    return written;
  }
  if (hop.children.empty()) return Status::ok();
  std::shared_ptr<FanOut> fan_out = nullptr;
  {
    MutexLock lock(mu_);
    std::shared_ptr<FanOut>& slot = fan_outs_[chan.name()];
    if (slot == nullptr) {
      slot = std::make_shared<FanOut>(forwarder_, hop.children);
    }
    fan_out = slot;
  }
  MutexLock lock(fan_out->mu);
  fan_out->edges.forward(
      method_id(Method::kRelayWrite),
      [config = hop.config, offset, data](const multicast::RelayNode& child) {
        return relay_write_request(child, config, offset, data);
      },
      dead);
  return Status::ok();
}

Status GridBufferServer::close_and_forward(Channel& chan,
                                           const Broadcast& hop,
                                           const StreamExtent* extent,
                                           bool failed,
                                           std::vector<std::string>& dead) {
  failed = failed || chan.writer_failed();
  if (failed) chan.fail_writer("the stream's writer failed upstream");
  StreamExtent closed_at;
  Status closed = Status::ok();
  if (extent != nullptr && !failed) {
    // A close that the parent adopted from a failed relay can overtake
    // runs that relay still has on their way here. The close waits for
    // them; a copy that stays short fails it, so the parent reports
    // this machine dead rather than its readers seeing a short stream.
    closed_at = *extent;
    closed = chan.close_writer_at(*extent, clamp_to_budget_ms(kCloseIdleMs));
  } else {
    // The writer's own close, or a failed stream's, whose readers get
    // kDataLoss once they have drained it.
    closed_at = chan.close_writer();
  }
  settle_fan_out(chan.name(), dead);
  GL_RETURN_IF_ERROR(closed);
  if (!hop.children.empty()) {
    multicast::relay_block(
        forwarder_, hop.children, method_id(Method::kRelayClose),
        [&](const multicast::RelayNode& child) {
          return relay_close_request(child, hop.config, closed_at, failed);
        },
        dead);
  }
  return Status::ok();
}

void GridBufferServer::settle_fan_out(const std::string& channel,
                                      std::vector<std::string>& dead) {
  std::shared_ptr<FanOut> fan_out = nullptr;
  {
    MutexLock lock(mu_);
    const auto it = fan_outs_.find(channel);
    if (it == fan_outs_.end()) return;
    fan_out = std::move(it->second);
    fan_outs_.erase(it);
  }
  MutexLock lock(fan_out->mu);
  fan_out->edges.settle(dead);
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
        std::vector<std::string> dead;
        GL_RETURN_IF_ERROR(
            store_and_forward(*chan, *broadcast(channel), offset, data, dead));
        if (!dead.empty()) {
          GL_LOG(kWarn, "grid buffer broadcast ", channel, ": ", dead.size(),
                 " machine(s) unreachable; their local readers will miss a ",
                 "run");
        }
        return Buffer{};
      });
  rpc_.register_method(
      method_id(Method::kCloseWrite),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string channel, dec.string());
        GL_ASSIGN_OR_RETURN(const bool failed, dec.boolean());
        GL_ASSIGN_OR_RETURN(auto chan, store_.find(channel));
        std::vector<std::string> dead;
        GL_RETURN_IF_ERROR(close_and_forward(*chan, *broadcast(channel),
                                             /*extent=*/nullptr, failed,
                                             dead));
        if (!dead.empty()) {
          GL_LOG(kWarn, "grid buffer broadcast ", channel, ": close did ",
                 "not reach ", dead.size(), " machine(s)");
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
        GL_ASSIGN_OR_RETURN(multicast::RelayNode node,
                            multicast::decode_node(dec));
        GL_ASSIGN_OR_RETURN(ChannelConfig config,
                            decode_channel_config(dec));
        GL_ASSIGN_OR_RETURN(const std::uint64_t offset, dec.u64());
        GL_ASSIGN_OR_RETURN(const Buffer data, dec.bytes());

        const std::string host = rpc_.endpoint().host;
        obs::Span span(obs::SpanKind::kRelay,
                       [&] { return strings::cat("relay:", host); });
        span.add_attr("channel", node.path);
        span.add_attr("children",
                      [&] { return strings::cat(node.children.size()); });

        const std::uint64_t cumulative =
            relayed_bytes_.fetch_add(data.size(),
                                     std::memory_order_relaxed) +
            data.size();
        GL_RETURN_IF_ERROR(multicast::consult_relay_fault(host, cumulative));

        // Same channel, node-local reader count: the store only requires
        // block_size/cache agreement across machines.
        if (node.readers != 0) config.expected_readers = node.readers;
        GL_ASSIGN_OR_RETURN(auto chan, store_.open(node.path, config));
        // Cut through: the reply carries only the dead hosts found while
        // settling older runs; the close's reply carries the rest.
        std::vector<std::string> dead;
        GL_RETURN_IF_ERROR(store_and_forward(
            *chan, Broadcast{config, std::move(node.children)}, offset, data,
            dead));
        return multicast::encode_dead_hosts(dead);
      });
  rpc_.register_method(
      method_id(Method::kRelayClose),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(multicast::RelayNode node,
                            multicast::decode_node(dec));
        GL_ASSIGN_OR_RETURN(ChannelConfig config,
                            decode_channel_config(dec));
        StreamExtent extent;
        GL_ASSIGN_OR_RETURN(extent.frontier, dec.u64());
        GL_ASSIGN_OR_RETURN(extent.stored, dec.u64());
        GL_ASSIGN_OR_RETURN(const bool failed, dec.boolean());

        const std::string host = rpc_.endpoint().host;
        GL_RETURN_IF_ERROR(multicast::consult_relay_fault(
            host, relayed_bytes_.load(std::memory_order_relaxed)));

        if (node.readers != 0) config.expected_readers = node.readers;
        GL_ASSIGN_OR_RETURN(auto chan, store_.open(node.path, config));
        std::vector<std::string> dead;
        GL_RETURN_IF_ERROR(close_and_forward(
            *chan, Broadcast{config, std::move(node.children)}, &extent,
            failed, dead));
        return multicast::encode_dead_hosts(dead);
      });
}

}  // namespace griddles::gridbuffer
