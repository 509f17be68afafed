#include "src/net/inproc.h"

#include <deque>
#include <thread>

#include "src/common/queue.h"
#include "src/common/thread_annotations.h"

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace griddles::net {
namespace internal {

namespace {
std::string listener_key(const Endpoint& ep) {
  return strings::cat(ep.host, "/", ep.service);
}
}  // namespace

/// One direction of an in-process connection: a bounded FIFO whose
/// messages carry a modelled arrival time computed by the sender's
/// LinkShaper.
class InProcChannel {
 public:
  InProcChannel(Clock& clock, std::shared_ptr<LinkShaper> shaper,
                std::size_t capacity)
      : clock_(clock), shaper_(std::move(shaper)), capacity_(capacity) {}

  Status send(Buffer message) {
    const Duration arrival =
        shaper_->arrival_time(clock_.now(), message.size());
    MutexLock lock(mu_);
    // lint: blocking-ok (monitor wait: releases mu_ until space or close)
    not_full_.wait(mu_, [&]() REQUIRES(mu_) {
      return closed_ || queue_.size() < capacity_;
    });
    if (closed_) return closed_error("inproc channel closed");
    queue_.push_back(Msg{arrival, std::move(message)});
    lock.unlock();
    not_empty_.notify_one();
    return Status::ok();
  }

  Result<Buffer> recv(const WallClock::time_point* deadline) {
    MutexLock lock(mu_);
    while (true) {
      if (deadline == nullptr) {
        // lint: blocking-ok (monitor wait: releases mu_ until msg or close)
        not_empty_.wait(mu_, [&]() REQUIRES(mu_) {
          return closed_ || !queue_.empty();
        });
        // lint: blocking-ok (monitor wait, deadline-bounded: releases mu_)
      } else if (!not_empty_.wait_until(mu_, *deadline, [&]() REQUIRES(mu_) {
                   return closed_ || !queue_.empty();
                 })) {
        return timeout_error("inproc recv timed out");
      }
      if (queue_.empty()) return closed_error("inproc channel closed");
      const Duration arrival = queue_.front().arrival;
      const Duration now = clock_.now();
      if (now >= arrival) {
        Buffer data = std::move(queue_.front().data);
        queue_.pop_front();
        lock.unlock();
        not_full_.notify_one();
        return data;
      }
      // The head message is still "in flight" under the link model: wait
      // out the remaining model time, bounded by the caller's deadline.
      const Duration wait = arrival - now;
      const WallClock::time_point wall_arrival = clock_.wall_deadline(wait);
      if (deadline != nullptr && *deadline < wall_arrival) {
        lock.unlock();
        std::this_thread::sleep_until(*deadline);
        return timeout_error("inproc recv timed out in flight");
      }
      lock.unlock();
      std::this_thread::sleep_until(wall_arrival);
      lock.lock();
    }
  }

  void close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  struct Msg {
    Duration arrival;
    Buffer data;
  };

  Clock& clock_;
  std::shared_ptr<LinkShaper> shaper_;
  const std::size_t capacity_;
  Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<Msg> queue_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

/// A connection endpoint: sends into one channel, receives from another.
class InProcConnection final : public Connection {
 public:
  InProcConnection(std::shared_ptr<InProcChannel> tx,
                   std::shared_ptr<InProcChannel> rx, std::string peer)
      : tx_(std::move(tx)), rx_(std::move(rx)), peer_(std::move(peer)) {}

  ~InProcConnection() override { close(); }

  Status send(Buffer message) override {
    return tx_->send(std::move(message));
  }
  Result<Buffer> recv() override { return rx_->recv(nullptr); }
  Result<Buffer> recv_until(WallClock::time_point deadline) override {
    return rx_->recv(&deadline);
  }

  void close() override {
    tx_->close();
    rx_->close();
  }

  std::string peer() const override { return peer_; }

 private:
  std::shared_ptr<InProcChannel> tx_;
  std::shared_ptr<InProcChannel> rx_;
  std::string peer_;
};

class InProcListenerState {
 public:
  InProcListenerState(InProcNetwork& network, Endpoint endpoint)
      : network_(network),
        endpoint_(std::move(endpoint)),
        pending_(/*capacity=*/64) {}

  InProcNetwork& network_;
  Endpoint endpoint_;
  BoundedQueue<std::unique_ptr<Connection>> pending_;
};

class InProcListener final : public Listener {
 public:
  explicit InProcListener(std::shared_ptr<InProcListenerState> state)
      : state_(std::move(state)) {}

  ~InProcListener() override { close(); }

  Result<std::unique_ptr<Connection>> accept() override {
    auto conn = state_->pending_.pop();
    if (!conn) return closed_error("inproc listener closed");
    return std::move(*conn);
  }

  Endpoint bound_endpoint() const override { return state_->endpoint_; }

  void close() override {
    state_->pending_.close();
    state_->network_.unregister_listener(listener_key(state_->endpoint_));
  }

 private:
  std::shared_ptr<InProcListenerState> state_;
};

}  // namespace internal

InProcNetwork::InProcNetwork(Clock& clock) : clock_(clock) {}
InProcNetwork::~InProcNetwork() = default;

std::unique_ptr<Transport> InProcNetwork::transport(std::string host) {
  return std::make_unique<InProcTransport>(*this, std::move(host));
}

void InProcNetwork::set_channel_capacity(std::size_t messages) {
  MutexLock lock(mu_);
  channel_capacity_ = messages;
}

Result<std::shared_ptr<internal::InProcListenerState>>
InProcNetwork::register_listener(const Endpoint& endpoint) {
  const std::string key = internal::listener_key(endpoint);
  MutexLock lock(mu_);
  const auto it = listeners_.find(key);
  if (it != listeners_.end() && !it->second.expired()) {
    return already_exists(
        strings::cat("inproc service already bound: ", endpoint.to_string()));
  }
  auto state = std::make_shared<internal::InProcListenerState>(*this,
                                                               endpoint);
  listeners_[key] = state;
  return state;
}

void InProcNetwork::unregister_listener(const std::string& key) {
  MutexLock lock(mu_);
  const auto it = listeners_.find(key);
  if (it != listeners_.end() && it->second.expired()) listeners_.erase(it);
  // A live entry is left in place: close() may race with a fresh bind to
  // the same name, which register_listener already arbitrates.
}

std::shared_ptr<LinkShaper> InProcNetwork::shaper_for(
    const std::string& src, const std::string& dst) {
  MutexLock lock(mu_);
  auto& slot = shapers_[{src, dst}];
  if (!slot) {
    slot = std::make_shared<LinkShaper>(links_, src, dst);
  }
  return slot;
}

Result<std::shared_ptr<internal::InProcListenerState>>
InProcNetwork::find_listener(const Endpoint& endpoint) {
  const std::string key = internal::listener_key(endpoint);
  MutexLock lock(mu_);
  const auto it = listeners_.find(key);
  if (it == listeners_.end()) {
    return unavailable(
        strings::cat("no inproc service at ", endpoint.to_string()));
  }
  auto state = it->second.lock();
  if (!state) {
    return unavailable(
        strings::cat("inproc service at ", endpoint.to_string(), " is gone"));
  }
  return state;
}

Result<std::unique_ptr<Connection>> InProcTransport::connect(
    const Endpoint& remote) {
  if (!remote.is_inproc()) {
    return invalid_argument(strings::cat("inproc transport cannot reach ",
                                         remote.to_string()));
  }
  GL_ASSIGN_OR_RETURN(auto listener, network_.find_listener(remote));

  std::size_t capacity;
  {
    MutexLock lock(network_.mu_);
    capacity = network_.channel_capacity_;
  }
  auto client_to_server = std::make_shared<internal::InProcChannel>(
      network_.clock(), network_.shaper_for(host_, remote.host), capacity);
  auto server_to_client = std::make_shared<internal::InProcChannel>(
      network_.clock(), network_.shaper_for(remote.host, host_), capacity);

  auto server_side = std::make_unique<internal::InProcConnection>(
      server_to_client, client_to_server,
      strings::cat("inproc://", host_, "/<client>"));
  auto client_side = std::make_unique<internal::InProcConnection>(
      client_to_server, server_to_client, remote.to_string());

  if (!listener->pending_.push(std::move(server_side))) {
    return unavailable(
        strings::cat("inproc service at ", remote.to_string(), " closed"));
  }
  GL_LOG(kDebug, "inproc connect ", host_, " -> ", remote.to_string());
  return std::unique_ptr<Connection>(std::move(client_side));
}

Result<std::unique_ptr<Listener>> InProcTransport::listen(
    const Endpoint& local) {
  if (!local.is_inproc()) {
    return invalid_argument(
        strings::cat("inproc transport cannot bind ", local.to_string()));
  }
  GL_ASSIGN_OR_RETURN(auto state, network_.register_listener(local));
  return std::unique_ptr<Listener>(
      std::make_unique<internal::InProcListener>(std::move(state)));
}

}  // namespace griddles::net
