#include "src/net/rpc.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/fault/plan.h"
#include "src/fault/retry.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/xdr/codec.h"

namespace griddles::net {

namespace {
/// Process-wide RPC metrics (handles cached once).
struct RpcMetrics {
  obs::Counter& client_calls;
  obs::Counter& client_errors;  // calls that returned a non-ok Status
  obs::Counter& client_bytes_sent;
  obs::Counter& client_bytes_received;
  obs::Counter& server_requests;
  obs::Counter& server_bytes_in;
  obs::Counter& server_bytes_out;
  obs::Counter& deadline_expired;  // work rejected/abandoned on expiry

  static RpcMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static RpcMetrics metrics{
        registry.counter("rpc.client.calls"),
        registry.counter("rpc.client.errors"),
        registry.counter("rpc.client.bytes.sent"),
        registry.counter("rpc.client.bytes.received"),
        registry.counter("rpc.server.requests"),
        registry.counter("rpc.server.bytes.in"),
        registry.counter("rpc.server.bytes.out"),
        registry.counter("deadline.expired"),
    };
    return metrics;
  }
};

/// Bytes of the binary frame in front of the payload: kind, id, method,
/// trace and span ids, deadline, status (code, text) and payload length.
std::size_t header_size(const RpcFrame& frame) {
  return 1 + 8 + 2 + 8 + 8 + 8 + 4 + 4 + frame.status.message().size() + 4;
}

/// Writes the header_size(frame) header bytes, big-endian as XDR, for a
/// payload of `payload_size` bytes. Written in place rather than through
/// an xdr::Encoder so that framing allocates nothing.
void write_header(const RpcFrame& frame, std::size_t payload_size,
                  std::byte* out) {
  const auto put = [&out](std::uint64_t value, int width) {
    for (int i = width - 1; i >= 0; --i) {
      *out++ = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
    }
  };
  put(static_cast<std::uint8_t>(frame.kind), 1);
  put(frame.id, 8);
  put(frame.method, 2);
  put(frame.trace_id, 8);
  put(frame.span_id, 8);
  put(frame.deadline_us, 8);
  put(static_cast<std::uint32_t>(frame.status.code()), 4);
  const std::string& text = frame.status.message();
  put(text.size(), 4);
  std::memcpy(out, text.data(), text.size());
  out += text.size();
  put(payload_size, 4);
}

/// The frame as sent on a connection. The binary header goes into the
/// payload's headroom, so the payload itself is not copied again.
Buffer to_wire(RpcFrame&& frame, WireFormat format) {
  if (format == WireFormat::kSoap) return soap_encode(frame);
  const std::size_t payload_size = frame.payload.size();
  MutableByteSpan head;
  Buffer wire = std::move(frame.payload).grow_front(header_size(frame), head);
  write_header(frame, payload_size, head.data());
  return wire;
}

/// The payload of a frame this side encoded, to resend it after a
/// reconnect.
Buffer sent_payload(const Buffer& wire, WireFormat format) {
  auto frame = decode_frame(wire, format);
  return frame.is_ok() ? std::move(frame->payload) : Buffer{};
}
}  // namespace

Bytes encode_frame(const RpcFrame& frame, WireFormat format) {
  if (format == WireFormat::kSoap) return soap_encode(frame);
  Bytes out;
  out.reserve(header_size(frame) + frame.payload.size());
  out.resize(header_size(frame));
  write_header(frame, frame.payload.size(), out.data());
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

Result<RpcFrame> decode_frame(Buffer data, WireFormat format) {
  if (format == WireFormat::kSoap) return soap_decode(data);
  xdr::Decoder dec(std::move(data));
  RpcFrame frame;
  GL_ASSIGN_OR_RETURN(const std::uint8_t kind, dec.u8());
  if (kind > 1) return invalid_argument("rpc frame: bad kind");
  frame.kind = static_cast<FrameKind>(kind);
  GL_ASSIGN_OR_RETURN(frame.id, dec.u64());
  GL_ASSIGN_OR_RETURN(frame.method, dec.u16());
  GL_ASSIGN_OR_RETURN(frame.trace_id, dec.u64());
  GL_ASSIGN_OR_RETURN(frame.span_id, dec.u64());
  GL_ASSIGN_OR_RETURN(frame.deadline_us, dec.u64());
  GL_RETURN_IF_ERROR(xdr::decode_status(dec, &frame.status));
  GL_ASSIGN_OR_RETURN(frame.payload, dec.bytes());
  return frame;
}

RpcServer::RpcServer(Transport& transport, Endpoint bind, WireFormat format)
    : transport_(transport), bind_(std::move(bind)), format_(format) {}

RpcServer::~RpcServer() { stop(); }

void RpcServer::register_method(std::uint16_t method, RpcHandler handler,
                                std::uint32_t cost) {
  MutexLock lock(mu_);
  handlers_[method] = Method{std::move(handler), cost, /*admitted=*/true};
}

void RpcServer::register_method_unadmitted(std::uint16_t method,
                                           RpcHandler handler) {
  MutexLock lock(mu_);
  handlers_[method] = Method{std::move(handler), 0, /*admitted=*/false};
}

void RpcServer::set_admission(AdmissionController::Options options) {
  MutexLock lock(mu_);
  admission_options_ = options;
}

AdmissionController* RpcServer::admission() {
  MutexLock lock(mu_);
  return admission_.get();
}

Status RpcServer::start() {
  MutexLock lock(mu_);
  if (started_) return failed_precondition("rpc server already started");
  GL_ASSIGN_OR_RETURN(listener_, transport_.listen(bind_));
  // Admission is on by default: the default capacity dwarfs anything a
  // well-behaved workload queues, so only genuine overload ever sheds.
  // The site key is "<host>/<service>" so burst@rpc globs can single out
  // one service class on a machine (e.g. "*/gbuf-*" hits only Grid
  // Buffer servers, leaving the staged-file path admissible).
  admission_ = std::make_unique<AdmissionController>(
      bind_.service.empty() ? bind_.host
                            : strings::cat(bind_.host, "/", bind_.service),
      admission_options_);
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

Endpoint RpcServer::endpoint() const {
  MutexLock lock(mu_);
  return listener_ ? listener_->bound_endpoint() : bind_;
}

void RpcServer::stop() {
  std::thread accept_thread;
  std::vector<std::thread> workers;
  AdmissionController* admission = nullptr;
  {
    MutexLock lock(mu_);
    if (!started_ || stopping_.exchange(true)) {
      // Not started, or another stop() already in progress.
      if (!started_) return;
    }
    if (listener_) listener_->close();
    for (auto& weak_conn : connections_) {
      if (auto conn = weak_conn.lock()) conn->close();
    }
    admission = admission_.get();
    accept_thread = std::move(accept_thread_);
    workers = std::move(workers_);
  }
  // Unblock workers parked in the admission queue before joining them.
  if (admission != nullptr) admission->close();
  if (accept_thread.joinable()) accept_thread.join();
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  MutexLock lock(mu_);
  started_ = false;
  stopping_ = false;
  listener_.reset();
  admission_.reset();  // a restarted server gets a fresh controller
  connections_.clear();
}

std::size_t RpcServer::live_connections() const {
  MutexLock lock(mu_);
  std::size_t live = 0;
  for (const auto& weak_conn : connections_) {
    if (!weak_conn.expired()) ++live;
  }
  return live;
}

void RpcServer::accept_loop() {
  // The listener outlives this loop: stop() closes it under the lock
  // (which unblocks accept()) and only resets the pointer after this
  // thread has been joined, so one snapshot up front is safe.
  Listener* listener = nullptr;
  {
    MutexLock lock(mu_);
    listener = listener_.get();
  }
  while (!stopping_) {
    auto accepted = listener->accept();
    if (!accepted.is_ok()) {
      if (accepted.status().code() == ErrorCode::kClosed || stopping_) return;
      GL_LOG(kWarn, "rpc accept failed: ", accepted.status());
      continue;
    }
    std::shared_ptr<Connection> conn = std::move(*accepted);
    MutexLock lock(mu_);
    if (stopping_) {
      conn->close();
      return;
    }
    connections_.push_back(conn);
    workers_.emplace_back(
        [this, conn = std::move(conn)]() mutable { serve_connection(conn); });
  }
}

void RpcServer::serve_connection(std::shared_ptr<Connection> conn) {
  const RpcContext context{conn->peer()};
  while (!stopping_) {
    auto message = conn->recv();
    if (!message.is_ok()) {
      if (message.status().code() != ErrorCode::kClosed) {
        GL_LOG(kDebug, "rpc connection error from ", context.peer, ": ",
               message.status());
      }
      return;
    }
    RpcMetrics::get().server_bytes_in.add(message->size());
    auto frame = decode_frame(std::move(*message), format_);
    if (!frame.is_ok()) {
      GL_LOG(kWarn, "rpc bad frame from ", context.peer, ": ",
             frame.status());
      return;  // framing is broken; drop the connection
    }
    if (frame->kind != FrameKind::kRequest) {
      GL_LOG(kWarn, "rpc unexpected response frame from ", context.peer);
      return;
    }
    RpcMetrics::get().server_requests.add();

    RpcFrame reply;
    reply.kind = FrameKind::kResponse;
    reply.id = frame->id;
    reply.method = frame->method;

    const Method* entry = nullptr;
    AdmissionController* admission = nullptr;
    {
      MutexLock lock(mu_);
      const auto it = handlers_.find(frame->method);
      if (it != handlers_.end()) entry = &it->second;
      admission = admission_.get();
    }
    if (entry == nullptr) {
      reply.status = unimplemented(
          strings::cat("no handler for method ", frame->method));
    } else {
      // Adopt the caller's trace for the handler's duration: spans the
      // handler opens (and nested RPC hops it makes) parent to the
      // remote caller's span. Untraced requests get no server span —
      // otherwise every request would mint a fresh root trace.
      obs::ScopedTraceContext trace_scope(
          obs::TraceContext{frame->trace_id, frame->span_id});
      std::optional<obs::Span> rpc_span;
      if (frame->trace_id != 0) {
        rpc_span.emplace(obs::SpanKind::kRpc,
                         strings::cat("rpc:", frame->method));
        rpc_span->add_attr("peer", context.peer);
      }
      // Re-anchor the caller's remaining budget on this server's clock.
      // Admission queueing and handler service both burn it, and nested
      // hops the handler makes forward whatever is left.
      std::optional<WallClock::time_point> hop_deadline;
      if (frame->deadline_us != 0) {
        hop_deadline = WallClock::now() +
                       std::chrono::microseconds(frame->deadline_us);
      }
      ScopedDeadline deadline_scope(hop_deadline);

      Status gate = Status::ok();
      AdmissionController::Permit permit;
      if (deadline_expired()) {
        gate = deadline_exceeded(strings::cat(
            "rpc ", frame->method, ": budget exhausted on arrival"));
      } else if (entry->admitted && admission != nullptr) {
        auto admitted = admission->admit(entry->cost, frame->method);
        if (admitted.is_ok()) {
          permit = std::move(*admitted);
          if (deadline_expired()) {
            gate = deadline_exceeded(strings::cat(
                "rpc ", frame->method, ": budget exhausted while queued"));
          }
        } else {
          gate = admitted.status();
        }
      }
      if (!gate.is_ok()) {
        // Expired or shed work is rejected *before* the handler runs —
        // executing it anyway would spend capacity on a reply nobody is
        // waiting for.
        if (gate.code() == ErrorCode::kDeadlineExceeded) {
          RpcMetrics::get().deadline_expired.add();
          obs::Span expired(obs::SpanKind::kDeadlineExpired,
                            strings::cat("rpc.expired:", frame->method));
          expired.add_attr("peer", context.peer);
        }
        reply.status = gate;
        if (rpc_span) rpc_span->add_attr("error", gate.message());
      } else {
        auto result = (entry->handler)(frame->payload, context);
        if (result.is_ok()) {
          reply.payload = std::move(*result);
        } else {
          reply.status = result.status();
          if (rpc_span) rpc_span->add_attr("error", result.status().message());
        }
      }
    }
    Buffer encoded = to_wire(std::move(reply), format_);
    RpcMetrics::get().server_bytes_out.add(encoded.size());
    if (const Status sent = conn->send(std::move(encoded)); !sent.is_ok()) {
      if (sent.code() != ErrorCode::kClosed) {
        GL_LOG(kDebug, "rpc reply send failed: ", sent);
      }
      return;
    }
  }
}

RpcClient::RpcClient(Transport& transport, Endpoint server, WireFormat format)
    : transport_(transport), server_(std::move(server)), format_(format),
      fault_key_(strings::cat(transport.local_host(), ">", server_.host)) {}

RpcClient::~RpcClient() {
  MutexLock lock(mu_);
  if (conn_) conn_->close();
}

Status RpcClient::ensure_connected() {
  if (conn_) return Status::ok();
  GL_ASSIGN_OR_RETURN(conn_, transport_.connect(server_));
  return Status::ok();
}

void RpcClient::reset_connection() {
  MutexLock lock(mu_);
  if (conn_) conn_->close();
  conn_.reset();
}

Result<Buffer> RpcClient::call(std::uint16_t method, Buffer request) {
  RpcMetrics::get().client_calls.add();
  auto result = call_impl(method, std::move(request), nullptr);
  if (!result.is_ok()) RpcMetrics::get().client_errors.add();
  return result;
}

Result<Buffer> RpcClient::call_until(std::uint16_t method, Buffer request,
                                     WallClock::time_point deadline) {
  RpcMetrics::get().client_calls.add();
  auto result = call_impl(method, std::move(request), &deadline);
  if (!result.is_ok()) RpcMetrics::get().client_errors.add();
  return result;
}

Result<Buffer> RpcClient::call_impl(std::uint16_t method, Buffer request,
                                    const WallClock::time_point* deadline) {
  // Every fresh call earns its peer retry-budget tokens (taken before
  // the client lock: the budget has its own).
  const std::uint64_t key_hash = fnv1a(as_bytes_view(fault_key_));
  fault::RetryBudget::global().note_fresh(key_hash);

  MutexLock lock(mu_);
  if (fault::armed() == nullptr) {
    return call_once(method, std::move(request), deadline);
  }

  // Fault-tolerant path: consult the armed plan before each attempt and
  // retry transient failures (injected or organic) with deterministic
  // backoff. Injected drops fail *before* any bytes leave the client, so
  // a retried request is never a duplicate on the server.
  const fault::RetryPolicy policy;
  // Each retry becomes a child span covering its backoff plus the
  // re-attempt: emplace() records the previous attempt's span and opens
  // the next, so injected chaos shows up on the exported timeline.
  std::optional<obs::Span> retry_span;
  for (int attempt = 1;; ++attempt) {
    Result<Buffer> result = unavailable("rpc: no attempt made");
    fault::Plan* plan = fault::armed();
    fault::Decision decision;
    if (plan != nullptr) {
      decision = plan->consult(fault::Site::kRpc, fault_key_);
    }
    if (decision.action == fault::Decision::Action::kFail) {
      result = unavailable(strings::cat("injected fault: rpc ", fault_key_));
    } else {
      if (decision.action == fault::Decision::Action::kDelay) {
        // Injected latency must not serialize unrelated callers behind
        // this client's sleep: release the client lock for the duration.
        lock.unlock();
        fault::sleep_for_model(decision.delay);
        lock.lock();
      }
      // Each attempt shares the request, so framing it copies (armed
      // fault plans only).
      result = call_once(method, request, deadline);
    }
    if (result.is_ok()) return result;

    // kTimeout only arises under a caller deadline, which retrying would
    // overrun — surface it. Everything else follows the shared policy.
    const ErrorCode code = result.status().code();
    if (!fault::RetryPolicy::retryable(code) ||
        code == ErrorCode::kTimeout || attempt >= policy.max_attempts) {
      return result;
    }
    // A dry per-peer token bucket turns the retry away — the original
    // error surfaces instead of joining a retry storm.
    if (!fault::RetryBudget::global().acquire(key_hash)) return result;
    fault::note_retry_attempt();
    retry_span.emplace(obs::SpanKind::kRetry,
                       strings::cat("rpc.retry:", fault_key_));
    retry_span->add_attr("attempt", strings::cat(attempt + 1));
    retry_span->add_attr("error", result.status().message());
    lock.unlock();
    fault::sleep_for_model(policy.backoff(attempt, key_hash));
    lock.lock();
  }
}

Result<Buffer> RpcClient::call_once(std::uint16_t method, Buffer request,
                                    const WallClock::time_point* deadline) {
  Buffer encoded;
  for (int attempt = 0; attempt < 2; ++attempt) {
    // A reconnect resends the request the first attempt framed.
    if (attempt > 0) request = sent_payload(encoded, format_);
    // Fail fast while the ambient budget is already spent: sending would
    // only make the server reject the work after a wasted round trip.
    const std::optional<Duration> budget = remaining_budget();
    if (budget && *budget <= Duration::zero()) {
      RpcMetrics::get().deadline_expired.add();
      obs::Span expired(obs::SpanKind::kDeadlineExpired,
                        strings::cat("rpc.expired:", method));
      expired.add_attr("where", "client.pre-send");
      return deadline_exceeded(
          strings::cat("rpc ", method, ": budget exhausted before send"));
    }
    GL_RETURN_IF_ERROR(ensure_connected());

    RpcFrame frame;
    frame.kind = FrameKind::kRequest;
    frame.id = next_id_++;
    frame.method = method;
    // Propagate the caller's active trace across the hop; zeros (no
    // active span on this thread) travel as "untraced".
    const obs::TraceContext trace = obs::current_context();
    frame.trace_id = trace.trace_id;
    frame.span_id = trace.span_id;
    if (budget) {
      // The remaining end-to-end budget travels as microseconds and is
      // re-anchored on the server's clock. Clamped to >= 1 so "almost
      // out" never reads as "no deadline" on the wire.
      frame.deadline_us = static_cast<std::uint64_t>(std::max<std::int64_t>(
          1, std::chrono::duration_cast<std::chrono::microseconds>(*budget)
                 .count()));
    }
    const std::uint64_t id = frame.id;
    frame.payload = std::move(request);
    encoded = to_wire(std::move(frame), format_);
    RpcMetrics::get().client_bytes_sent.add(encoded.size());
    const Status sent = conn_->send(encoded);
    if (!sent.is_ok()) {
      conn_.reset();
      if (attempt == 0 && sent.code() == ErrorCode::kClosed) continue;
      return sent;
    }

    // The reply wait honours whichever bound is tighter: the explicit
    // call_until deadline or the ambient end-to-end budget.
    const std::optional<WallClock::time_point> ambient = current_deadline();
    const WallClock::time_point* recv_deadline = deadline;
    if (ambient && (recv_deadline == nullptr || *ambient < *recv_deadline)) {
      recv_deadline = &*ambient;
    }
    auto message = recv_deadline != nullptr ? conn_->recv_until(*recv_deadline)
                                            : conn_->recv();
    if (!message.is_ok()) {
      const ErrorCode code = message.status().code();
      if (code == ErrorCode::kTimeout) {
        if (ambient && recv_deadline == &*ambient) {
          // The budget, not an explicit timeout, cut the wait short.
          RpcMetrics::get().deadline_expired.add();
          obs::Span expired(obs::SpanKind::kDeadlineExpired,
                            strings::cat("rpc.expired:", method));
          expired.add_attr("where", "client.await-reply");
          return deadline_exceeded(strings::cat(
              "rpc ", method, ": budget exhausted awaiting reply"));
        }
        return message.status();
      }
      conn_.reset();
      if (attempt == 0 && code == ErrorCode::kClosed) continue;
      return message.status();
    }
    RpcMetrics::get().client_bytes_received.add(message->size());
    GL_ASSIGN_OR_RETURN(RpcFrame reply,
                        decode_frame(std::move(*message), format_));
    if (reply.kind != FrameKind::kResponse || reply.id != id) {
      conn_.reset();
      return internal_error("rpc response out of sequence");
    }
    if (!reply.status.is_ok()) return reply.status;
    return std::move(reply.payload);
  }
  return unavailable(strings::cat("rpc to ", server_.to_string(),
                                  " failed after reconnect"));
}

}  // namespace griddles::net
