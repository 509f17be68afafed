#include "src/replica/replicated_client.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace griddles::replica {

Result<Selection> select_replica(const std::vector<PhysicalReplica>& copies,
                                 nws::LinkEstimator& estimator) {
  if (copies.empty()) return not_found("no replicas to select from");
  Selection best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const PhysicalReplica& replica : copies) {
    double cost;
    auto estimate = estimator.estimate(replica.host);
    if (estimate.is_ok()) {
      cost = estimate->transfer_seconds(replica.size);
    } else {
      // Unknown link: pessimistic, but finite so lone replicas still win.
      cost = 3600.0 + static_cast<double>(replica.size) / 1e6;
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = Selection{replica, cost};
    }
  }
  return best;
}

Result<std::unique_ptr<ReplicatedFileClient>> ReplicatedFileClient::open(
    net::Transport& transport, CatalogClient& catalog,
    const std::string& logical_name, nws::LinkEstimator& estimator,
    Options options) {
  GL_ASSIGN_OR_RETURN(std::vector<PhysicalReplica> copies,
                      catalog.lookup(logical_name));
  auto client = std::unique_ptr<ReplicatedFileClient>(
      new ReplicatedFileClient(transport, logical_name, estimator, options,
                               std::move(copies)));
  // Attach cheapest-first; a copy whose host is down just moves us to the
  // next-best candidate instead of failing the open.
  GL_RETURN_IF_ERROR(
      client->attach_cheapest("", [] { return Status::ok(); }));
  return client;
}

ReplicatedFileClient::ReplicatedFileClient(
    net::Transport& transport, std::string logical_name,
    nws::LinkEstimator& estimator, Options options,
    std::vector<PhysicalReplica> copies)
    : transport_(transport), logical_name_(std::move(logical_name)),
      estimator_(estimator), options_(options), copies_(std::move(copies)) {}

Status ReplicatedFileClient::attach(const PhysicalReplica& replica) {
  GL_ASSIGN_OR_RETURN(const net::Endpoint endpoint,
                      net::Endpoint::parse(replica.server_endpoint));
  const std::uint64_t cursor = source_ ? source_->tell() : 0;
  GL_ASSIGN_OR_RETURN(
      auto next,
      remote::RemoteFileClient::open(transport_, endpoint, replica.path,
                                     vfs::OpenFlags::input(),
                                     options_.remote));
  GL_ASSIGN_OR_RETURN(const std::uint64_t pos,
                      next->seek(static_cast<std::int64_t>(cursor),
                                 vfs::Whence::kSet));
  (void)pos;
  if (source_) {
    (void)source_->close();
    ++switch_count_;
    GL_LOG(kInfo, "replica '", logical_name_, "' remapped ", current_.host,
           " -> ", replica.host);
  }
  source_ = std::move(next);
  current_ = replica;
  bytes_since_reselect_ = 0;
  return Status::ok();
}

Status ReplicatedFileClient::attach_cheapest(
    const std::string& failed_host, const std::function<Status()>& use) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& failover_attempts =
      registry.counter("failover.attempts");
  static obs::Counter& failover_switches =
      registry.counter("failover.switches");
  const bool failover = !failed_host.empty();
  std::vector<PhysicalReplica> candidates;
  for (const PhysicalReplica& copy : copies_) {
    if (copy.host != failed_host) candidates.push_back(copy);
  }
  Status last = not_found("no replicas to select from");
  while (!candidates.empty()) {
    GL_ASSIGN_OR_RETURN(const Selection chosen,
                        select_replica(candidates, estimator_));
    const std::string host = chosen.replica.host;
    if (failover) failover_attempts.add();
    last = attach(chosen.replica);
    if (last.is_ok()) {
      if (failover) failover_switches.add();
      last = use();
      if (last.is_ok()) return last;
    }
    GL_LOG(kWarn, "replica on ", host, " failed: ", last);
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&host](const PhysicalReplica& r) {
                         return r.host == host;
                       }),
        candidates.end());
  }
  return last;
}

void ReplicatedFileClient::maybe_reselect() {
  if (bytes_since_reselect_ < options_.reselect_interval_bytes) return;
  bytes_since_reselect_ = 0;
  auto chosen = select_replica(copies_, estimator_);
  if (!chosen.is_ok()) return;
  if (chosen->replica.host == current_.host) return;
  auto current_estimate = estimator_.estimate(current_.host);
  if (current_estimate.is_ok()) {
    const double current_cost =
        current_estimate->transfer_seconds(current_.size);
    if (chosen->cost_seconds * options_.switch_margin >= current_cost) {
      return;  // not enough of an improvement to pay for a reconnect
    }
  }
  if (const Status s = attach(chosen->replica); !s.is_ok()) {
    GL_LOG(kWarn, "replica remap failed, staying on ", current_.host, ": ",
           s);
  }
}

Result<std::size_t> ReplicatedFileClient::read(MutableByteSpan out) {
  if (!source_) return failed_precondition("read on closed replica client");
  maybe_reselect();
  auto got = source_->read(out);
  if (!got.is_ok()) {
    // The chosen copy failed mid-read (host down?): fail over, trying
    // the surviving replicas cheapest-first under the current NWS
    // estimates rather than in catalog order.
    GL_LOG(kWarn, "replica read from ", current_.host, " failed: ",
           got.status());
    const Status failed_over = attach_cheapest(current_.host, [&] {
      got = source_->read(out);
      return got.status();
    });
    if (!failed_over.is_ok()) return got.status();
  }
  bytes_since_reselect_ += *got;
  return got;
}

Result<std::size_t> ReplicatedFileClient::write(ByteSpan) {
  return permission_denied(
      "replicated files are read-only (writes would fork the replicas)");
}

Result<std::uint64_t> ReplicatedFileClient::seek(std::int64_t offset,
                                                 vfs::Whence whence) {
  if (!source_) return failed_precondition("seek on closed replica client");
  return source_->seek(offset, whence);
}

std::uint64_t ReplicatedFileClient::tell() const {
  return source_ ? source_->tell() : 0;
}

Result<std::uint64_t> ReplicatedFileClient::size() {
  if (!source_) return failed_precondition("size of closed replica client");
  return source_->size();
}

Status ReplicatedFileClient::flush() { return Status::ok(); }

Status ReplicatedFileClient::close() {
  if (!source_) return Status::ok();
  const Status s = source_->close();
  source_.reset();
  return s;
}

std::string ReplicatedFileClient::describe() const {
  return strings::cat("replica:", logical_name_, "@", current_.host);
}

}  // namespace griddles::replica
