// Minimal request/response RPC over any Transport.
//
// Frames are either raw binary (default) or SOAP/XML envelopes
// (WireFormat::kSoap) — the services are oblivious to the choice.
// A server runs one thread per connection; handlers may block (the Grid
// Buffer's read-blocks-until-written semantics depend on this).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/net/admission.h"
#include "src/net/soap.h"
#include "src/net/transport.h"

namespace griddles::net {

enum class WireFormat { kBinary, kSoap };

/// Per-call server-side context.
struct RpcContext {
  std::string peer;
};

/// A handler consumes the request payload and produces a response payload
/// (or an error Status, which travels back to the caller). The request
/// shares the received message: keep slices of it via Buffer::compact().
using RpcHandler =
    std::function<Result<Buffer>(const Buffer&, const RpcContext&)>;

/// Serves each connection on its own thread and answers its requests one
/// at a time, in the order they arrived: a client may pipeline requests
/// on one connection and read the replies in the order it sent them.
class RpcServer {
 public:
  /// Does not start serving until start().
  RpcServer(Transport& transport, Endpoint bind,
            WireFormat format = WireFormat::kBinary);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Registers a handler; must happen before start(). Admitted: the
  /// request acquires one unit from the admission controller (and may
  /// be shed with kResourceExhausted under overload) before the handler
  /// runs.
  void register_method(std::uint16_t method, RpcHandler handler);

  /// Registers a handler that bypasses admission control. Reserved for
  /// handlers that block server-side for application reasons (Grid
  /// Buffer read-blocks-until-written) and would starve the admission
  /// queue if they held capacity; tools/lint.py flags every call site
  /// without a `// lint: no-admission (<why>)` excuse.
  void register_method_unadmitted(std::uint16_t method, RpcHandler handler);

  /// Replaces the default admission configuration; before start().
  void set_admission(AdmissionController::Options options);

  /// The server's admission controller (introspection for tests).
  AdmissionController* admission();

  /// Binds and spawns the accept loop.
  Status start();

  /// The endpoint clients should dial (resolves ephemeral TCP ports).
  Endpoint endpoint() const;

  /// Stops accepting, closes live connections, joins all threads.
  void stop();

  /// Number of currently connected clients (for tests).
  std::size_t live_connections() const;

 private:
  struct Method {
    RpcHandler handler;
    bool admitted = true;
  };

  /// A connection's thread; the connection lives while it is served.
  struct Worker {
    std::thread thread;
    std::weak_ptr<Connection> conn;
  };

  void accept_loop();
  void serve_connection(std::shared_ptr<Connection> conn);

  Transport& transport_;
  Endpoint bind_;
  WireFormat format_;

  mutable Mutex mu_;
  std::map<std::uint16_t, Method> handlers_ GUARDED_BY(mu_);
  AdmissionController::Options admission_options_ GUARDED_BY(mu_);
  std::unique_ptr<AdmissionController> admission_ GUARDED_BY(mu_);
  std::unique_ptr<Listener> listener_ GUARDED_BY(mu_);
  std::thread accept_thread_ GUARDED_BY(mu_);
  std::vector<Worker> workers_ GUARDED_BY(mu_);
  bool started_ GUARDED_BY(mu_) = false;
  std::atomic<bool> stopping_{false};
};

/// RPC client over one connection. call() waits for its reply; send()
/// does not, and receive() returns the reply to the oldest unanswered
/// send() (RpcServer answers in order). Keep few requests unanswered: a
/// server whose replies back up stops reading. A broken connection is
/// reconnected once and every unanswered request resent in order, so a
/// pipelined request must be safe to repeat.
class RpcClient {
 public:
  RpcClient(Transport& transport, Endpoint server,
            WireFormat format = WireFormat::kBinary);

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Calls `method`; the returned bytes are the handler's response
  /// payload, a slice of the received message. Handler errors come back
  /// as their original Status. A request the caller hands over is framed
  /// in its headroom (Buffer::grow_front). Fails with kFailedPrecondition
  /// while a send() is unanswered.
  Result<Buffer> call(std::uint16_t method, Buffer request);

  /// As call(), failing with kTimeout at the wall deadline.
  Result<Buffer> call_until(std::uint16_t method, Buffer request,
                            WallClock::time_point deadline);

  /// Sends a request without waiting for its reply. An armed fault
  /// plan's drops are retried as call() retries them.
  Status send(std::uint16_t method, Buffer request);

  /// The reply to the oldest unanswered send(), as call() returns it. A
  /// handler error answers its own request only. Any other failure (the
  /// ambient deadline, a connection lost twice) abandons every unanswered
  /// request and drops the connection.
  Result<Buffer> receive();

  /// Requests sent and not yet answered.
  std::size_t unanswered();

  const Endpoint& server() const noexcept { return server_; }

  /// Drops the cached connection; the next send() or receive()
  /// reconnects and resends every unanswered request.
  void reset_connection();

 private:
  /// A request sent and not yet answered, kept as sent for a resend.
  struct Pending {
    std::uint64_t id = 0;
    std::uint16_t method = 0;
    Buffer wire;
  };

  /// Sends `request` and, when `await_reply`, receives its reply.
  Result<Buffer> exchange(std::uint16_t method, Buffer request,
                          bool await_reply,
                          const WallClock::time_point* deadline);
  Status send_locked(std::uint16_t method, Buffer request) REQUIRES(mu_);
  Result<Buffer> receive_locked(const WallClock::time_point* deadline)
      REQUIRES(mu_);
  /// Connects if there is no connection, resending every unanswered
  /// request: their replies left with the old connection.
  Status ensure_connected() REQUIRES(mu_);

  Transport& transport_;
  Endpoint server_;
  WireFormat format_;
  std::string fault_key_;  // "src>dst" host pair for fault-plan consults
  // exchange() consults the armed fault plan and bumps retry metrics
  // under the client lock (backoff sleeps release it).
  Mutex mu_ ACQUIRED_BEFORE("Plan::mu_", "MetricsRegistry::mu_");
  std::unique_ptr<Connection> conn_ GUARDED_BY(mu_);
  std::uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::vector<Pending> pending_ GUARDED_BY(mu_);  // oldest first, few
};

/// Encodes/decodes RPC frames for the given wire format (exposed for the
/// codec ablation bench and fuzz-style tests). A decoded binary frame's
/// payload is a slice of `data`.
Bytes encode_frame(const RpcFrame& frame, WireFormat format);
Result<RpcFrame> decode_frame(Buffer data, WireFormat format);

}  // namespace griddles::net
