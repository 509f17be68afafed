#include "src/multicast/relay.h"

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/fault/plan.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace griddles::multicast {

namespace {
obs::Counter& reparents_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("multicast.reparents");
  return counter;
}

obs::Counter& relay_dead_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("multicast.relay.dead");
  return counter;
}

void collect_subtree_hosts(const RelayNode& node,
                           std::vector<std::string>& hosts) {
  hosts.push_back(node.host);
  for (const RelayNode& child : node.children) {
    collect_subtree_hosts(child, hosts);
  }
}
}  // namespace

std::size_t RelayNode::subtree_size() const {
  std::size_t size = 1;
  for (const RelayNode& child : children) size += child.subtree_size();
  return size;
}

void encode_node(xdr::Encoder& enc, const RelayNode& node) {
  enc.put_string(node.host);
  enc.put_string(node.endpoint);
  enc.put_string(node.path);
  enc.put_u32(node.readers);
  enc.put_vector(node.children, [](xdr::Encoder& e, const RelayNode& child) {
    encode_node(e, child);
  });
}

Result<RelayNode> decode_node(xdr::Decoder& dec, int depth) {
  if (depth > kMaxRelayDepth) {
    return invalid_argument("relay tree exceeds maximum depth");
  }
  RelayNode node;
  GL_ASSIGN_OR_RETURN(node.host, dec.string());
  GL_ASSIGN_OR_RETURN(node.endpoint, dec.string());
  GL_ASSIGN_OR_RETURN(node.path, dec.string());
  GL_ASSIGN_OR_RETURN(node.readers, dec.u32());
  GL_ASSIGN_OR_RETURN(
      node.children,
      dec.vector<RelayNode>([depth](xdr::Decoder& d) {
        return decode_node(d, depth + 1);
      }));
  return node;
}

Buffer encode_dead_hosts(const std::vector<std::string>& dead) {
  xdr::Encoder enc;
  enc.put_vector(dead, [](xdr::Encoder& e, const std::string& host) {
    e.put_string(host);
  });
  return std::move(enc).finish();
}

Result<std::vector<std::string>> decode_dead_hosts(const Buffer& reply) {
  xdr::Decoder dec(reply);
  return dec.vector<std::string>(
      [](xdr::Decoder& d) { return d.string(); });
}

Result<std::unique_ptr<net::RpcClient>> RelayForwarder::borrow(
    const RelayNode& node) {
  {
    MutexLock lock(mu_);
    const auto it = idle_.find(node.endpoint);
    if (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<net::RpcClient> client = std::move(it->second.back());
      it->second.pop_back();
      return client;
    }
  }
  GL_ASSIGN_OR_RETURN(const net::Endpoint endpoint,
                      net::Endpoint::parse(node.endpoint));
  return std::make_unique<net::RpcClient>(transport_, endpoint);
}

void RelayForwarder::give_back(const RelayNode& node,
                               std::unique_ptr<net::RpcClient> client) {
  if (client->unanswered() != 0) return;
  MutexLock lock(mu_);
  idle_[node.endpoint].push_back(std::move(client));
}

namespace {
/// Appends the dead hosts `child`'s relay reply reports.
void note_reply(const RelayNode& child, const Buffer& reply,
                std::vector<std::string>& dead) {
  auto reported = decode_dead_hosts(reply);
  if (reported.is_ok()) {
    dead.insert(dead.end(), reported->begin(), reported->end());
    return;
  }
  // A garbled response means the subtree's state is unknown; mark every
  // host in it missed so the source repairs conservatively.
  GL_LOG(kWarn, "relay response from ", child.host, " undecodable (",
         reported.status(), "); assuming subtree missed");
  collect_subtree_hosts(child, dead);
}

/// Child unreachable (or an injected die@relay fired there): adopts its
/// subtree for this block — forwards straight to the grandchildren — and
/// reports the child dead so the source repairs its local file.
void adopt(RelayForwarder& forwarder, const RelayNode& child,
           std::uint16_t method, const RelayPayloadFn& payload,
           const Status& error, std::vector<std::string>& dead) {
  relay_dead_counter().add();
  reparents_counter().add();
  obs::Span reparent_span(obs::SpanKind::kRecovery,
                          strings::cat("multicast.reparent:", child.host));
  reparent_span.add_attr("error", error.message());
  reparent_span.add_attr("adopted", strings::cat(child.children.size()));
  GL_LOG(kWarn, "relay ", child.host, " failed (", error,
         "); re-parenting ", child.children.size(), " subtree(s)");
  dead.push_back(child.host);
  relay_block(forwarder, child.children, method, payload, dead);
}
}  // namespace

RelayFanOut::RelayFanOut(RelayForwarder& forwarder,
                         std::vector<RelayNode> children,
                         std::size_t max_unanswered)
    : forwarder_(forwarder), max_unanswered_(max_unanswered) {
  edges_.reserve(children.size());
  for (RelayNode& child : children) {
    auto client = forwarder_.borrow(child);
    edges_.push_back(Edge{std::move(child), std::move(client), {}});
  }
}

RelayFanOut::~RelayFanOut() {
  for (Edge& edge : edges_) {
    if (edge.client.is_ok()) {
      forwarder_.give_back(edge.child, std::move(*edge.client));
    }
  }
}

void RelayFanOut::forward(std::uint16_t method, const RelayPayloadFn& payload,
                          std::vector<std::string>& dead) {
  for (Edge& edge : edges_) {
    if (edge.unanswered.size() >= max_unanswered_) settle_oldest(edge, dead);
    const Status sent =
        edge.client.is_ok()
            ? (*edge.client)->send(method, payload(edge.child))
            : edge.client.status();
    if (sent.is_ok()) {
      edge.unanswered.push_back(Run{method, payload});
    } else {
      adopt(forwarder_, edge.child, method, payload, sent, dead);
    }
  }
}

void RelayFanOut::settle(std::vector<std::string>& dead) {
  for (Edge& edge : edges_) {
    while (!edge.unanswered.empty()) settle_oldest(edge, dead);
  }
}

void RelayFanOut::settle_oldest(Edge& edge, std::vector<std::string>& dead) {
  net::RpcClient& client = **edge.client;
  const Result<Buffer> reply = client.receive();
  if (reply.is_ok()) {
    note_reply(edge.child, *reply, dead);
    edge.unanswered.pop_front();
    return;
  }
  // A handler error fails its own run only; any other failure abandoned
  // every later run on the edge as well.
  for (std::size_t failed = edge.unanswered.size() - client.unanswered();
       failed > 0; --failed) {
    const Run run = std::move(edge.unanswered.front());
    edge.unanswered.pop_front();
    adopt(forwarder_, edge.child, run.method, run.payload, reply.status(),
          dead);
  }
}

void relay_block(RelayForwarder& forwarder,
                 const std::vector<RelayNode>& children,
                 std::uint16_t method, const RelayPayloadFn& payload,
                 std::vector<std::string>& dead) {
  RelayFanOut once(forwarder, children, /*max_unanswered=*/1);
  once.forward(method, payload, dead);
  once.settle(dead);
}

Status consult_relay_fault(const std::string& host,
                           std::uint64_t cumulative_bytes) {
  fault::Plan* plan = fault::armed();
  if (plan == nullptr) return Status::ok();
  const fault::Decision verdict =
      plan->consult(fault::Site::kRelay, host, cumulative_bytes);
  switch (verdict.action) {
    case fault::Decision::Action::kNone:
      return Status::ok();
    case fault::Decision::Action::kDelay:
      fault::sleep_for_model(verdict.delay);
      return Status::ok();
    default:
      return unavailable(strings::cat("injected fault: relay ", host));
  }
}

}  // namespace griddles::multicast
