// Block-level relay protocol for multicast distribution (DESIGN.md §12).
//
// A relay request carries the receiving node's own subtree in-band: its
// local write target (file path or buffer channel), its endpoint, and
// the full subtrees of its children. The receiver writes the block once
// locally and forwards it to each child — no relay ever needs prior
// per-transfer state, so any remote::FileServer or GridBufferServer can
// be recruited as an interior relay of any transfer.
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

/// The dead-host list every relay response carries.
void encode_dead_hosts(xdr::Encoder& enc,
                       const std::vector<std::string>& dead);
Result<std::vector<std::string>> decode_dead_hosts(xdr::Decoder& dec);

/// A small cache of RPC clients keyed by endpoint, shared by every
/// forward a relay makes. RpcClient serializes calls internally, so one
/// client per child endpoint mirrors one connection per tree edge.
class RelayForwarder {
 public:
  explicit RelayForwarder(net::Transport& transport)
      : transport_(transport) {}

  /// Calls `method` on the node's endpoint with `request`.
  Result<Buffer> call(const RelayNode& node, std::uint16_t method,
                      Buffer request);

 private:
  net::Transport& transport_;
  Mutex mu_;
  std::map<std::string, std::shared_ptr<net::RpcClient>> clients_
      GUARDED_BY(mu_);
};

/// Builds the request payload delivering one block (or run of blocks)
/// to `node`'s subtree.
using RelayPayloadFn = std::function<Buffer(const RelayNode& node)>;

/// Delivers one payload to every subtree in `children`: one call per
/// child, each failure adopted (the dead child's own children get direct
/// calls from here, recursively). Appends every dead host seen — locally
/// or reported by a child's response — to `dead`. Never fails: total
/// subtree loss just means every host lands in `dead`.
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
