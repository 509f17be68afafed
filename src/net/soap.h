// SOAP-style XML envelope codec.
//
// The paper implemented the Grid Buffer service over Web Services/SOAP to
// leverage that ecosystem and traverse firewalls (§4). We reproduce the
// *cost structure* of that decision: frames can optionally be wrapped in
// an XML envelope with a base64 body. The codec ablation bench
// (bench_ablation_codec) quantifies the envelope's throughput/latency tax
// against raw binary framing.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace griddles::net {

/// RPC frame kinds shared by the binary and SOAP codecs.
enum class FrameKind : std::uint8_t { kRequest = 0, kResponse = 1 };

/// The canonical RPC frame, independent of wire format.
struct RpcFrame {
  FrameKind kind = FrameKind::kRequest;
  std::uint64_t id = 0;
  std::uint16_t method = 0;
  // Causal-trace propagation metadata (obs::TraceContext of the caller's
  // active span; both 0 when the caller is untraced). The server installs
  // this as the handler thread's context, so server-side spans parent to
  // the remote caller across the hop.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  // Remaining end-to-end budget in microseconds at send time (0 = no
  // deadline). The server re-anchors it against its own clock, so each
  // hop's queueing and service time shrinks the budget for the next.
  std::uint64_t deadline_us = 0;
  Status status;  // meaningful on responses only
  Buffer payload;
};

std::string base64_encode(ByteSpan data);
Result<Bytes> base64_decode(std::string_view text);

/// Serializes a frame as a SOAP-style XML envelope.
Bytes soap_encode(const RpcFrame& frame);

/// Parses an envelope produced by soap_encode (tolerates whitespace).
Result<RpcFrame> soap_decode(ByteSpan data);

}  // namespace griddles::net
