#include "src/nws/monitor.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/fault/plan.h"
#include "src/obs/metrics.h"
#include "src/xdr/codec.h"

namespace griddles::nws {

namespace {
constexpr std::uint16_t method_id(Method m) {
  return static_cast<std::uint16_t>(m);
}
}  // namespace

Responder::Responder(net::Transport& transport, net::Endpoint bind)
    : rpc_(transport, std::move(bind)) {
  rpc_.register_method(
      method_id(Method::kEcho),
      [](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        return request;
      });
  rpc_.register_method(
      method_id(Method::kSink),
      [](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Encoder enc;
        enc.put_u64(request.size());
        return std::move(enc).finish();
      });
}

Monitor::Monitor(net::Transport& transport, Clock& clock, Options options)
    : transport_(transport), clock_(clock), options_(options) {}

Monitor::~Monitor() { stop(); }

void Monitor::add_target(const std::string& dst_host,
                         net::Endpoint responder) {
  MutexLock lock(mu_);
  auto target = std::make_shared<Target>();
  target->responder = std::move(responder);
  targets_[dst_host] = std::move(target);
}

Status Monitor::probe_once(const std::string& dst_host) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& probes_ok = registry.counter("nws.probe.ok");
  static obs::Counter& probes_failed = registry.counter("nws.probe.failed");
  static obs::Counter& outages = registry.counter("nws.sensor.outage");
  const Status status = probe_once_impl(dst_host);
  (status.is_ok() ? probes_ok : probes_failed).add();
  if (status.code() != ErrorCode::kNotFound) {
    MutexLock lock(mu_);
    if (const auto it = targets_.find(dst_host); it != targets_.end()) {
      if (status.is_ok()) {
        it->second->last_ok = clock_.now();
        it->second->failed_streak = 0;
      } else {
        ++it->second->failed_streak;
        if (it->second->failed_streak == options_.outage_after_failures) {
          outages.add();
        }
      }
    }
  }
  return status;
}

Status Monitor::probe_once_impl(const std::string& dst_host) {
  // Holding a shared_ptr keeps the target alive across the (slow, lock-free)
  // probe RPCs even if add_target concurrently replaces the map entry.
  std::shared_ptr<Target> target;
  {
    MutexLock lock(mu_);
    const auto it = targets_.find(dst_host);
    if (it == targets_.end()) {
      return not_found(strings::cat("nws: unknown target ", dst_host));
    }
    target = it->second;
    if (!target->client) {
      target->client =
          std::make_unique<net::RpcClient>(transport_, target->responder);
    }
  }

  // Injected sensor outage: `drop@nws:<dst>` fails one probe round,
  // `die@nws:<dst>` silences the sensor permanently.
  if (fault::Plan* plan = fault::armed(); plan != nullptr) {
    const fault::Decision verdict =
        plan->consult(fault::Site::kNws, dst_host);
    if (verdict.action == fault::Decision::Action::kFail ||
        verdict.action == fault::Decision::Action::kKill) {
      return unavailable(
          strings::cat("injected fault: nws probe ", dst_host));
    }
    if (verdict.action == fault::Decision::Action::kDelay) {
      fault::sleep_for_model(verdict.delay);
    }
  }

  // RTT: median of echo_count small echoes; latency = RTT / 2.
  std::vector<double> rtts;
  for (std::size_t i = 0; i < options_.echo_count; ++i) {
    const Duration start = clock_.now();
    const Bytes ping = to_bytes("nws-ping");
    GL_ASSIGN_OR_RETURN(const Buffer reply,
                        target->client->call(method_id(Method::kEcho), ping));
    if (reply.size() != ping.size()) {
      return internal_error("nws echo reply size mismatch");
    }
    rtts.push_back(to_seconds_d(clock_.now() - start));
  }
  std::nth_element(rtts.begin(), rtts.begin() + rtts.size() / 2, rtts.end());
  const double rtt = rtts[rtts.size() / 2];
  const double latency = rtt / 2.0;

  // Throughput: time a bulk transfer and subtract the latency estimate.
  Bytes bulk(options_.bulk_bytes, std::byte{0x5a});
  const Duration bulk_start = clock_.now();
  GL_ASSIGN_OR_RETURN(const Buffer ack,
                      target->client->call(method_id(Method::kSink), bulk));
  (void)ack;
  const double bulk_elapsed = to_seconds_d(clock_.now() - bulk_start);
  const double transfer = std::max(1e-9, bulk_elapsed - rtt);
  const double bandwidth = static_cast<double>(options_.bulk_bytes) / transfer;

  const Duration now = clock_.now();
  target->latency.add(latency, now);
  target->bandwidth.add(bandwidth, now);
  GL_LOG(kDebug, "nws probe ", transport_.local_host(), " -> ", dst_host,
         ": latency=", latency, "s bandwidth=", bandwidth, "B/s");
  return Status::ok();
}

Status Monitor::probe_all() {
  std::vector<std::string> hosts;
  {
    MutexLock lock(mu_);
    hosts.reserve(targets_.size());
    for (const auto& [host, target] : targets_) hosts.push_back(host);
  }
  Status first_error = Status::ok();
  for (const std::string& host : hosts) {
    if (const Status s = probe_once(host);
        !s.is_ok() && first_error.is_ok()) {
      first_error = s;
    }
  }
  return first_error;
}

void Monitor::start() {
  if (running_.exchange(true)) return;
  prober_ = std::thread([this] {
    while (running_) {
      if (const Status s = probe_all(); !s.is_ok()) {
        GL_LOG(kDebug, "nws probe round error: ", s);
      }
      // Sleep in small wall slices so stop() is responsive even under a
      // large model-time period.
      const WallClock::time_point wake =
          clock_.wall_deadline(options_.period);
      while (running_ && WallClock::now() < wake) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  });
}

void Monitor::stop() {
  if (!running_.exchange(false)) return;
  if (prober_.joinable()) prober_.join();
}

Result<LinkEstimate> Monitor::estimate(const std::string& dst_host) {
  MutexLock lock(mu_);
  const auto it = targets_.find(dst_host);
  if (it == targets_.end()) {
    return not_found(strings::cat("nws: unknown target ", dst_host));
  }
  const Target& target = *it->second;
  if (options_.outage_after_failures > 0 &&
      target.failed_streak >= options_.outage_after_failures) {
    return unavailable(strings::cat(
        "nws: sensor outage for ", dst_host, " (", target.failed_streak,
        " consecutive probe failures)"));
  }
  const auto latency = target.latency.forecast();
  const auto bandwidth = target.bandwidth.forecast();
  if (!latency || !bandwidth) {
    return unavailable(strings::cat("nws: no samples yet for ", dst_host));
  }
  // A silent sensor decays the forecast's confidence toward the floor;
  // a fully decayed estimate is withheld rather than served as truth.
  double confidence = 1.0;
  if (target.last_ok >= Duration::zero() &&
      options_.stale_after > Duration::zero()) {
    const Duration age = clock_.now() - target.last_ok;
    if (age > options_.stale_after) {
      const double horizon = to_seconds_d(options_.stale_after);
      const double overdue = to_seconds_d(age - options_.stale_after);
      confidence = options_.confidence_floor +
                   (1.0 - options_.confidence_floor) *
                       std::exp(-overdue / horizon);
      if (confidence <= options_.confidence_floor + 1e-9) {
        return unavailable(strings::cat(
            "nws: estimate for ", dst_host, " is stale (last probe ",
            to_seconds_d(age), "s ago)"));
      }
    }
  }
  return LinkEstimate{*latency, *bandwidth, confidence};
}

std::shared_ptr<const Series> Monitor::latency_series(
    const std::string& dst_host) const {
  MutexLock lock(mu_);
  const auto it = targets_.find(dst_host);
  if (it == targets_.end()) return nullptr;
  // Aliasing constructor: shares the Target's lifetime.
  return std::shared_ptr<const Series>(it->second, &it->second->latency);
}

std::shared_ptr<const Series> Monitor::bandwidth_series(
    const std::string& dst_host) const {
  MutexLock lock(mu_);
  const auto it = targets_.find(dst_host);
  if (it == targets_.end()) return nullptr;
  return std::shared_ptr<const Series>(it->second, &it->second->bandwidth);
}

QueryService::QueryService(Monitor& monitor, net::Transport& transport,
                           net::Endpoint bind)
    : monitor_(monitor), rpc_(transport, std::move(bind)) {
  rpc_.register_method(
      method_id(Method::kEstimate),
      [this](const Buffer& request, const net::RpcContext&) -> Result<Buffer> {
        xdr::Decoder dec(request);
        GL_ASSIGN_OR_RETURN(const std::string dst_host, dec.string());
        GL_ASSIGN_OR_RETURN(const LinkEstimate estimate,
                            monitor_.estimate(dst_host));
        xdr::Encoder enc;
        enc.put_f64(estimate.latency_seconds);
        enc.put_f64(estimate.bandwidth_bytes_per_sec);
        return std::move(enc).finish();
      });
}

QueryClient::QueryClient(net::Transport& transport, net::Endpoint service)
    : rpc_(transport, std::move(service)) {}

Result<LinkEstimate> QueryClient::estimate(const std::string& dst_host) {
  xdr::Encoder enc;
  enc.put_string(dst_host);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(Method::kEstimate), enc.buffer()));
  xdr::Decoder dec(reply);
  LinkEstimate estimate;
  GL_ASSIGN_OR_RETURN(estimate.latency_seconds, dec.f64());
  GL_ASSIGN_OR_RETURN(estimate.bandwidth_bytes_per_sec, dec.f64());
  return estimate;
}

}  // namespace griddles::nws
