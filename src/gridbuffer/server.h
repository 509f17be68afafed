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
  kCloseWrite = 3,  // (channel, failed): failed when the writer could
                    // not flush, so readers get kDataLoss, not EOF
  kOpenRead = 4,    // (channel, block_size, cache, readers, max_bytes)
                    //   -> reader_id
  kRead = 5,        // (channel, reader_id, offset, length, deadline_ms)
                    //   -> eof, frontier, bytes
  kCloseRead = 6,   // (channel, reader_id)
  kStat = 7,        // (channel, wait_for_eof, deadline_ms) -> eof, frontier
  kRemove = 8,      // (channel)
  kRelayWrite = 9,  // (subtree, config, offset, bytes) -> dead hosts:
                    // open+write the run locally, forward it down the
                    // subtree and reply without waiting for it
                    // (broadcast relay hop, DESIGN.md §12)
  kRelayClose = 10, // (subtree, config, frontier, stored, failed) ->
                    // dead hosts: close the local writer once the
                    // channel holds the source's stream (or fail it, for
                    // a failed stream), settle the forwarded runs,
                    // forward the close down the subtree
};

/// Runs on the wire at once: a writer's default, and the most runs a
/// broadcast relay leaves unanswered on one edge (DESIGN.md §12).
inline constexpr int kRunsOnWire = 4;

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
  /// kWrite is also fanned out to `children` (cut-through kRelayWrite
  /// hops carrying the subtree in-band) and kCloseWrite closes the whole
  /// tree: each machine closes its channel once it holds the stream the
  /// source closed, and a machine that cannot is reported dead. The close
  /// of a stream whose writer failed fails every machine's channel. Each
  /// subtree node opens the channel locally with `config`, overriding
  /// expected_readers with its own node-local reader count.
  void set_broadcast(const std::string& channel,
                     const ChannelConfig& config,
                     std::vector<multicast::RelayNode> children);

 private:
  /// Where a hop sends a channel's runs and its close: the config each
  /// child opens the channel with, and the child subtrees (none for a
  /// plain channel).
  struct Broadcast {
    ChannelConfig config;
    std::vector<multicast::RelayNode> children;
  };
  /// A channel's fan-out. Its forwards and settles take turns under `mu`,
  /// held across a child's reply, so the channel's runs go down each
  /// edge in order.
  struct FanOut {
    FanOut(multicast::RelayForwarder& forwarder,
           std::vector<multicast::RelayNode> children)
        : edges(forwarder, std::move(children), kRunsOnWire) {}
    Mutex mu;
    multicast::RelayFanOut edges GUARDED_BY(mu);
  };

  /// The broadcast route of `channel`; one without children for a plain
  /// channel.
  std::shared_ptr<const Broadcast> broadcast(const std::string& channel) const;
  /// One hop of a stream (DESIGN.md §12), the writer's first hop and an
  /// interior relay alike: stores the run in `chan`, then sends it down
  /// `hop`'s children, cut through, on the channel's fan-out, which the
  /// first run makes. A run the channel refuses is never relayed, and a
  /// write that finds the writer failed drops the fan-out. Appends the
  /// dead hosts found while settling older runs.
  Status store_and_forward(Channel& chan, const Broadcast& hop,
                           std::uint64_t offset, const Buffer& data,
                           std::vector<std::string>& dead);
  /// Closes one hop: at what the channel holds for the writer's close
  /// (`extent` null), at the source's `extent` for a relayed one. A
  /// failed stream (`failed` from the parent, or a writer failed here)
  /// fails the channel instead, so its readers drain what was written
  /// and then get kDataLoss. Then settles the channel's fan-out and
  /// sends the close down `hop`'s children.
  Status close_and_forward(Channel& chan, const Broadcast& hop,
                           const StreamExtent* extent, bool failed,
                           std::vector<std::string>& dead);
  /// Drops `channel`'s fan-out, if any, once it has settled every run.
  void settle_fan_out(const std::string& channel,
                      std::vector<std::string>& dead);
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
  /// One per channel this server relays, from its first run to its
  /// relayed close (or to a write that finds the writer failed). Declared
  /// after forwarder_, which lends their clients.
  std::map<std::string, std::shared_ptr<FanOut>> fan_outs_ GUARDED_BY(mu_);
};

}  // namespace griddles::gridbuffer
