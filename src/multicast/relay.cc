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

void encode_dead_hosts(xdr::Encoder& enc,
                       const std::vector<std::string>& dead) {
  enc.put_vector(dead, [](xdr::Encoder& e, const std::string& host) {
    e.put_string(host);
  });
}

Result<std::vector<std::string>> decode_dead_hosts(xdr::Decoder& dec) {
  return dec.vector<std::string>(
      [](xdr::Decoder& d) { return d.string(); });
}

Result<Buffer> RelayForwarder::call(const RelayNode& node,
                                    std::uint16_t method, Buffer request) {
  std::shared_ptr<net::RpcClient> client;
  {
    MutexLock lock(mu_);
    const auto it = clients_.find(node.endpoint);
    if (it != clients_.end()) client = it->second;
  }
  if (!client) {
    GL_ASSIGN_OR_RETURN(const net::Endpoint endpoint,
                        net::Endpoint::parse(node.endpoint));
    auto fresh = std::make_shared<net::RpcClient>(transport_, endpoint);
    MutexLock lock(mu_);
    // First inserter wins a race; both clients work either way.
    client = clients_.emplace(node.endpoint, std::move(fresh)).first->second;
  }
  return client->call(method, std::move(request));
}

void relay_block(RelayForwarder& forwarder,
                 const std::vector<RelayNode>& children,
                 std::uint16_t method, const RelayPayloadFn& payload,
                 std::vector<std::string>& dead) {
  for (const RelayNode& child : children) {
    const Result<Buffer> reply = forwarder.call(child, method, payload(child));
    if (reply.is_ok()) {
      xdr::Decoder dec(*reply);
      auto reported = decode_dead_hosts(dec);
      if (reported.is_ok()) {
        dead.insert(dead.end(), reported->begin(), reported->end());
      } else {
        // A garbled response means the subtree's state is unknown; mark
        // every host in it missed so the source repairs conservatively.
        GL_LOG(kWarn, "relay response from ", child.host, " undecodable (",
               reported.status(), "); assuming subtree missed");
        collect_subtree_hosts(child, dead);
      }
      continue;
    }
    // Child unreachable (or an injected die@relay fired there): adopt its
    // subtree for this block — forward straight to the grandchildren —
    // and report the child dead so the source repairs its local file.
    relay_dead_counter().add();
    reparents_counter().add();
    obs::Span reparent_span(obs::SpanKind::kRecovery,
                            strings::cat("multicast.reparent:", child.host));
    reparent_span.add_attr("error", reply.status().message());
    reparent_span.add_attr("adopted", strings::cat(child.children.size()));
    GL_LOG(kWarn, "relay ", child.host, " failed (", reply.status(),
           "); re-parenting ", child.children.size(), " subtree(s)");
    dead.push_back(child.host);
    relay_block(forwarder, child.children, method, payload, dead);
  }
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
