// GridBufferServer: the RPC face of a ChannelStore (paper Figure 4's
// "Grid Buffer Server").
//
// The paper implemented this as a Web Service reached by SOAP messages;
// construct with WireFormat::kSoap to reproduce that wire format, or the
// default binary framing for the fast path (the ablation bench compares
// the two).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/gridbuffer/channel.h"
#include "src/multicast/relay.h"
#include "src/net/rpc.h"
#include "src/xdr/codec.h"

namespace griddles::gridbuffer {

enum class Method : std::uint16_t {
  kOpenWrite = 1,   // (channel, block_size, cache, readers, max_bytes)
  kWrite = 2,       // (channel, offset, bytes): a run of blocks, all
                    // whole but the last
  kCloseWrite = 3,  // (channel)
  kOpenRead = 4,    // (channel, block_size, cache, readers, max_bytes)
                    //   -> reader_id
  kRead = 5,        // (channel, reader_id, offset, length, deadline_ms)
                    //   -> eof, frontier, bytes
  kCloseRead = 6,   // (channel, reader_id)
  kStat = 7,        // (channel, wait_for_eof, deadline_ms) -> eof, frontier
  kRemove = 8,      // (channel)
  kRelayWrite = 9,  // (subtree, config, offset, bytes) -> dead hosts:
                    // open+write the run locally, forward it down the
                    // subtree (broadcast relay hop, DESIGN.md §12)
  kRelayClose = 10, // (subtree, config) -> dead hosts: close the local
                    // writer, forward the close down the subtree
};

constexpr std::uint16_t method_id(Method m) {
  return static_cast<std::uint16_t>(m);
}

void encode_channel_config(xdr::Encoder& enc, const ChannelConfig& config);
Result<ChannelConfig> decode_channel_config(xdr::Decoder& dec);

class GridBufferServer {
 public:
  /// `cache_dir` holds per-channel cache files.
  GridBufferServer(std::string cache_dir, net::Transport& transport,
                   net::Endpoint bind,
                   net::WireFormat format = net::WireFormat::kBinary);
  ~GridBufferServer();

  Status start() { return rpc_.start(); }

  /// Wakes blocked readers/writers, then stops the RPC server.
  void stop();

  net::Endpoint endpoint() const { return rpc_.endpoint(); }
  ChannelStore& store() noexcept { return store_; }

  /// Turns `channel` into a broadcast channel on this server: every
  /// kWrite is also fanned out to `children` (kRelayWrite hops carrying
  /// the subtree in-band) and kCloseWrite closes the whole tree. Each
  /// subtree node opens the channel locally with `config`, overriding
  /// expected_readers with its own node-local reader count.
  void set_broadcast(const std::string& channel,
                     const ChannelConfig& config,
                     std::vector<multicast::RelayNode> children);

 private:
  struct Broadcast {
    ChannelConfig config;
    std::vector<multicast::RelayNode> children;
  };

  /// The broadcast route of `channel`, or null for a plain channel.
  std::shared_ptr<const Broadcast> broadcast(const std::string& channel) const;
  void register_handlers();

  ChannelStore store_;
  net::RpcServer rpc_;
  multicast::RelayForwarder forwarder_;
  /// Cumulative bytes this server forwarded as a relay — the `after=`
  /// high-water mark of `die@relay:<host>` fault rules.
  // lint: not-a-metric (fault-site high-water mark)
  std::atomic<std::uint64_t> relayed_bytes_{0};
  mutable Mutex mu_;
  /// Immutable once installed, so a handler copies only the pointer.
  std::map<std::string, std::shared_ptr<const Broadcast>> broadcast_
      GUARDED_BY(mu_);
};

}  // namespace griddles::gridbuffer
