// Block-level relay protocol for multicast distribution (DESIGN.md §12).
//
// A relay request carries the receiving node's own subtree in-band: its
// local write target (file path or buffer channel), its endpoint, and
// the full subtrees of its children. The receiver writes the block once
// locally and forwards it to each child, so any remote::FileServer or
// GridBufferServer can be recruited as an interior relay of any transfer
// without prior setup. A Grid Buffer relay forwards cut-through: a
// RelayFanOut sends each run down its edges and takes the children's
// acknowledgements later.
//
// Fault tolerance is parent-side adoption: when a forward to child C
// fails, the parent re-parents C's subtree onto itself for this block —
// it sends the block directly to C's children (their subtrees are right
// there in the request) and reports C dead up the tree. The response of
// every relay hop is the list of dead hosts its subtree encountered, so
// the source learns exactly which destinations the tree could not serve
// and can fall back to a direct transfer for those.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/net/rpc.h"
#include "src/xdr/codec.h"

namespace griddles::multicast {

/// One node of the distribution tree as shipped on the wire. `path` is
/// the node-local write target: a server-relative file path for staged
/// copies, a channel name for Grid Buffer broadcast. `readers` is the
/// node-local expected reader count for buffer channels (0 = keep the
/// carried config's value; unused by file relays).
struct RelayNode {
  std::string host;
  std::string endpoint;  // serialized net::Endpoint
  std::string path;
  std::uint32_t readers = 0;
  std::vector<RelayNode> children;

  /// Nodes in this subtree including this one.
  std::size_t subtree_size() const;
};

/// Trees deeper than this fail to decode — a corrupted length prefix
/// must not recurse unboundedly. Real trees are O(log N) deep.
inline constexpr int kMaxRelayDepth = 64;

void encode_node(xdr::Encoder& enc, const RelayNode& node);
Result<RelayNode> decode_node(xdr::Decoder& dec, int depth = 0);

/// The dead-host list every relay response carries, as the response.
Buffer encode_dead_hosts(const std::vector<std::string>& dead);
Result<std::vector<std::string>> decode_dead_hosts(const Buffer& reply);

/// Lends RPC clients to relay forwards from an idle pool per endpoint.
/// A client serves one borrower at a time, so concurrent forwards to one
/// child each have their own connection, and a borrower may leave sends
/// unanswered while it holds the client.
class RelayForwarder {
 public:
  explicit RelayForwarder(net::Transport& transport)
      : transport_(transport) {}

  /// An idle client to `node`'s endpoint, or a new one.
  Result<std::unique_ptr<net::RpcClient>> borrow(const RelayNode& node);

  /// Returns a borrowed client to the pool. A client with requests still
  /// unanswered is dropped instead: its connection owes replies.
  void give_back(const RelayNode& node,
                 std::unique_ptr<net::RpcClient> client);

 private:
  net::Transport& transport_;
  Mutex mu_;
  std::map<std::string, std::vector<std::unique_ptr<net::RpcClient>>> idle_
      GUARDED_BY(mu_);
};

/// Builds the request payload delivering one block (or run of blocks)
/// to `node`'s subtree.
using RelayPayloadFn = std::function<Buffer(const RelayNode& node)>;

/// Cut-through forwarding of one transfer's runs to a relay's children
/// (DESIGN.md §12). Each edge holds one client to one child. forward()
/// sends a run down every edge and returns without waiting; an edge
/// takes its child's acknowledgements only when `max_unanswered` runs
/// are on it (the oldest first) and in settle(). An edge keeps each
/// unanswered run's payload function, which shares the run's bytes, so
/// a run whose send or acknowledgement fails is adopted: a one-shot
/// fan-out of its own delivers it to the failed child's children. Not
/// thread-safe: a caller that forwards from several threads takes
/// turns under one lock, held across the calls so that a transfer's
/// runs go down each edge in order.
class RelayFanOut {
 public:
  RelayFanOut(RelayForwarder& forwarder, std::vector<RelayNode> children,
              std::size_t max_unanswered);
  ~RelayFanOut();

  RelayFanOut(const RelayFanOut&) = delete;
  RelayFanOut& operator=(const RelayFanOut&) = delete;

  /// Sends one run to every child. Appends the dead hosts found while
  /// settling older runs to make room.
  void forward(std::uint16_t method, const RelayPayloadFn& payload,
               std::vector<std::string>& dead);

  /// Takes every unanswered acknowledgement, adopting the failed runs.
  void settle(std::vector<std::string>& dead);

 private:
  struct Run {
    std::uint16_t method = 0;
    RelayPayloadFn payload;
  };
  struct Edge {
    RelayNode child;
    Result<std::unique_ptr<net::RpcClient>> client;
    std::deque<Run> unanswered;  // oldest first
  };

  void settle_oldest(Edge& edge, std::vector<std::string>& dead);

  RelayForwarder& forwarder_;
  const std::size_t max_unanswered_;
  std::vector<Edge> edges_;
};

/// Delivers one payload to every subtree in `children` as a one-shot
/// RelayFanOut: one forward, then one settle. It sends to every child
/// before it takes any reply, so sibling subtrees are served in
/// parallel, and adopts each failure (recursively). Appends every dead
/// host seen — locally or reported by a child's response — to `dead`.
/// Never fails: total subtree loss just means every host lands in
/// `dead`.
void relay_block(RelayForwarder& forwarder,
                 const std::vector<RelayNode>& children,
                 std::uint16_t method, const RelayPayloadFn& payload,
                 std::vector<std::string>& dead);

/// Consults the armed fault plan at the relay site for `host`, with the
/// relay's cumulative forwarded bytes as the `after=` high-water mark.
/// Non-OK (kUnavailable) when an injected `die@relay:<host>` says this
/// relay is dead — the caller returns it so the parent adopts.
Status consult_relay_fault(const std::string& host,
                           std::uint64_t cumulative_bytes);

}  // namespace griddles::multicast
