// Message-oriented transport abstraction.
//
// Every GriddLeS service (GNS, Grid Buffer, remote file server, replica
// catalog, NWS) speaks over these interfaces, so a workflow can run on
// real loopback TCP sockets or on the modelled in-process network without
// any service code changing.
#pragma once

#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/net/endpoint.h"

namespace griddles::net {

/// A bidirectional, message-framed, reliable, ordered byte channel.
/// send() and recv() are each internally serialized; one thread may send
/// while another receives.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Enqueues one message, sharing rather than copying it; blocks on
  /// flow control. kClosed after close.
  virtual Status send(Buffer message) = 0;

  /// Blocks for the next message; kClosed on orderly shutdown.
  virtual Result<Buffer> recv() = 0;

  /// As recv(), but fails with kTimeout at the wall deadline.
  virtual Result<Buffer> recv_until(WallClock::time_point deadline) = 0;

  /// Half-closes for sending and unblocks local receivers.
  virtual void close() = 0;

  /// Diagnostic description of the remote end.
  virtual std::string peer() const = 0;
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next inbound connection; kClosed once shut down.
  virtual Result<std::unique_ptr<Connection>> accept() = 0;

  /// The endpoint clients should connect to (resolves ephemeral ports).
  virtual Endpoint bound_endpoint() const = 0;

  /// Stops accepting and unblocks accept().
  virtual void close() = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Connection>> connect(
      const Endpoint& remote) = 0;

  virtual Result<std::unique_ptr<Listener>> listen(const Endpoint& local) = 0;

  /// The host identity this transport connects *from* (used to pick the
  /// link model for the in-process network; informational for TCP).
  virtual const std::string& local_host() const = 0;
};

}  // namespace griddles::net
