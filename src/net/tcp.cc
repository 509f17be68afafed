#include "src/net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <span>

#include "src/common/strings.h"
#include "src/common/thread_annotations.h"

namespace griddles::net {
namespace {

Status errno_status(const char* what) {
  return io_error(strings::cat(what, ": ", strings::errno_message(errno)));
}

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }

  void reset() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

/// Writes every byte of `parts` as one gather (writev-style) send.
Status send_all(int fd, std::span<iovec> parts) {
  while (!parts.empty()) {
    msghdr msg{};
    msg.msg_iov = parts.data();
    msg.msg_iovlen = parts.size();
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("send");
    }
    auto left = static_cast<std::size_t>(n);
    while (!parts.empty() && left >= parts[0].iov_len) {
      left -= parts[0].iov_len;
      parts = parts.subspan(1);
    }
    if (!parts.empty()) {
      parts[0].iov_base = static_cast<char*>(parts[0].iov_base) + left;
      parts[0].iov_len -= left;
    }
  }
  return Status::ok();
}

/// Receives exactly `size` bytes; kClosed on orderly EOF at a frame edge.
Status recv_all(int fd, std::byte* data, std::size_t size, bool* eof_at_start,
                const WallClock::time_point* deadline) {
  std::size_t got = 0;
  while (got < size) {
    if (deadline != nullptr) {
      const auto now = WallClock::now();
      if (now >= *deadline) return timeout_error("tcp recv timed out");
      const auto remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(*deadline -
                                                                now)
              .count();
      struct pollfd pfd {};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int pr =
          ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                              1, std::min<long long>(remaining_ms, 60000))));
      if (pr < 0) {
        if (errno == EINTR) continue;
        return errno_status("poll");
      }
      if (pr == 0) continue;  // re-check the deadline
    }
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("recv");
    }
    if (n == 0) {
      if (eof_at_start != nullptr && got == 0) *eof_at_start = true;
      return closed_error("tcp connection closed by peer");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

class TcpConnection final : public Connection {
 public:
  TcpConnection(Fd fd, std::string peer)
      : fd_(std::move(fd)), peer_(std::move(peer)) {
    int one = 1;
    ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpConnection() override { close(); }

  Status send(Buffer message) override {
    if (message.size() > kMaxTcpMessageBytes) {
      return invalid_argument("tcp message exceeds frame cap");
    }
    MutexLock lock(send_mu_);
    if (closed_.load() || !fd_.valid()) {
      return closed_error("tcp connection closed");
    }
    std::byte header[4];
    const std::uint32_t size = static_cast<std::uint32_t>(message.size());
    header[0] = static_cast<std::byte>((size >> 24) & 0xFF);
    header[1] = static_cast<std::byte>((size >> 16) & 0xFF);
    header[2] = static_cast<std::byte>((size >> 8) & 0xFF);
    header[3] = static_cast<std::byte>(size & 0xFF);
    // The length prefix and the frame leave in one writev-style call.
    iovec parts[2] = {
        {header, sizeof(header)},
        {const_cast<std::byte*>(message.data()), message.size()}};
    return send_all(fd_.get(), parts);
  }

  Result<Buffer> recv() override { return recv_impl(nullptr); }

  Result<Buffer> recv_until(WallClock::time_point deadline) override {
    return recv_impl(&deadline);
  }

  void close() override {
    // Deliberately lock-free: a receiver may be blocked inside ::recv
    // holding recv_mu_, and shutdown() is what wakes it (the fd itself
    // stays open until destruction, so no descriptor reuse race).
    if (fd_.valid() && !closed_.exchange(true)) {
      ::shutdown(fd_.get(), SHUT_RDWR);
    }
  }

  std::string peer() const override { return peer_; }

 private:
  Result<Buffer> recv_impl(const WallClock::time_point* deadline) {
    MutexLock lock(recv_mu_);
    if (closed_.load() || !fd_.valid()) {
      return closed_error("tcp connection closed");
    }
    std::byte header[4];
    bool eof = false;
    GL_RETURN_IF_ERROR(recv_all(fd_.get(), header, sizeof(header), &eof,
                                deadline));
    const std::uint32_t size = (static_cast<std::uint32_t>(header[0]) << 24) |
                               (static_cast<std::uint32_t>(header[1]) << 16) |
                               (static_cast<std::uint32_t>(header[2]) << 8) |
                               static_cast<std::uint32_t>(header[3]);
    if (size > kMaxTcpMessageBytes) {
      return io_error("tcp frame larger than cap; stream corrupt");
    }
    MutableByteSpan out;
    Buffer payload = Buffer::uninitialized(size, out);
    GL_RETURN_IF_ERROR(
        recv_all(fd_.get(), out.data(), size, nullptr, deadline));
    return payload;
  }

  Fd fd_;
  std::string peer_;
  Mutex send_mu_;  // lint: guards the send half of fd_ (whole frames)
  Mutex recv_mu_;  // lint: guards the recv half of fd_ (whole frames)
  std::atomic<bool> closed_{false};
};

class TcpListener final : public Listener {
 public:
  TcpListener(Fd fd, Endpoint bound) : fd_(std::move(fd)), bound_(bound) {}

  ~TcpListener() override { close(); }

  Result<std::unique_ptr<Connection>> accept() override {
    sockaddr_in addr{};
    socklen_t addr_len = sizeof(addr);
    while (true) {
      const int conn_fd = ::accept(
          fd_.get(), reinterpret_cast<sockaddr*>(&addr), &addr_len);
      if (conn_fd >= 0) {
        char ip[INET_ADDRSTRLEN] = "?";
        ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
        return std::unique_ptr<Connection>(std::make_unique<TcpConnection>(
            Fd(conn_fd),
            strings::cat("tcp://", ip, ":", ntohs(addr.sin_port))));
      }
      if (errno == EINTR) continue;
      if (errno == EBADF || errno == EINVAL) {
        return closed_error("tcp listener closed");
      }
      return errno_status("accept");
    }
  }

  Endpoint bound_endpoint() const override { return bound_; }

  void close() override {
    // shutdown() wakes a blocked accept(); the fd is released at
    // destruction, after every accept() caller has returned.
    if (fd_.valid() && !closed_.exchange(true)) {
      ::shutdown(fd_.get(), SHUT_RDWR);
    }
  }

 private:
  Fd fd_;
  Endpoint bound_;
  std::atomic<bool> closed_{false};
};

}  // namespace

Result<std::unique_ptr<Connection>> TcpTransport::connect(
    const Endpoint& remote) {
  if (!remote.is_tcp()) {
    return invalid_argument(
        strings::cat("tcp transport cannot reach ", remote.to_string()));
  }
  GL_ASSIGN_OR_RETURN(const int port, remote.port());
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_status("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, remote.host.c_str(), &addr.sin_addr) != 1) {
    return invalid_argument(
        strings::cat("tcp endpoint host must be an IPv4 address, got ",
                     remote.host));
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return unavailable(strings::cat("connect ", remote.to_string(), ": ",
                                    strings::errno_message(errno)));
  }
  return std::unique_ptr<Connection>(
      std::make_unique<TcpConnection>(std::move(fd), remote.to_string()));
}

Result<std::unique_ptr<Listener>> TcpTransport::listen(const Endpoint& local) {
  if (!local.is_tcp()) {
    return invalid_argument(
        strings::cat("tcp transport cannot bind ", local.to_string()));
  }
  GL_ASSIGN_OR_RETURN(const int port, local.port());
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_status("socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return errno_status("bind");
  }
  if (::listen(fd.get(), 64) != 0) return errno_status("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return errno_status("getsockname");
  }
  const Endpoint bound_ep = tcp_endpoint("127.0.0.1", ntohs(bound.sin_port));
  return std::unique_ptr<Listener>(
      std::make_unique<TcpListener>(std::move(fd), bound_ep));
}

}  // namespace griddles::net
