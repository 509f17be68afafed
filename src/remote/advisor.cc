#include "src/remote/advisor.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.h"

namespace griddles::remote {

Advice advise_quiet(std::uint64_t file_size, double access_fraction,
                    const nws::LinkEstimate& link,
                    const AdvisorPolicy& policy) {
  Advice advice;
  const double size = static_cast<double>(file_size);
  const double fraction = std::clamp(access_fraction, 0.0, 1.0);
  const double bandwidth = std::max(1.0, link.bandwidth_bytes_per_sec);
  const double latency = std::max(0.0, link.latency_seconds);

  // Copy plan: chunks flow down parallel pipelined connections, so
  // round trips overlap with data; cost ≈ startup handshakes + bulk time.
  const double startup_round_trips = 2.0;  // stat + first chunk request
  advice.copy_cost_seconds =
      startup_round_trips * 2.0 * latency + size / bandwidth;

  // Proxy plan: each touched block is a synchronous request/response.
  const double block = static_cast<double>(policy.proxy_block_size);
  const double touched_blocks =
      file_size == 0 ? 0.0 : std::ceil(size * fraction / block);
  advice.proxy_cost_seconds =
      touched_blocks * (2.0 * latency + block / bandwidth);

  const bool copy_forbidden =
      policy.max_copy_bytes != 0 && file_size > policy.max_copy_bytes;
  advice.strategy =
      (!copy_forbidden &&
       advice.copy_cost_seconds <= advice.proxy_cost_seconds)
          ? RemoteStrategy::kCopy
          : RemoteStrategy::kProxy;
  return advice;
}

void record_advice(const Advice& advice) {
  // Decision telemetry: counts per strategy plus the predicted costs, so
  // predicted-vs-actual can be compared against `remote.copy.seconds`.
  // One logical transfer records exactly one decision — a multicast copy
  // to N destinations must not inflate these N-fold.
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& copy_decisions =
      registry.counter("advisor.decisions.copy");
  static obs::Counter& proxy_decisions =
      registry.counter("advisor.decisions.proxy");
  static obs::Histogram& predicted_copy_s = registry.histogram(
      "advisor.predicted.copy_s", obs::exponential_bounds(1e-3, 10.0, 8));
  static obs::Histogram& predicted_proxy_s = registry.histogram(
      "advisor.predicted.proxy_s", obs::exponential_bounds(1e-3, 10.0, 8));
  (advice.strategy == RemoteStrategy::kCopy ? copy_decisions
                                            : proxy_decisions)
      .add();
  predicted_copy_s.observe(advice.copy_cost_seconds);
  predicted_proxy_s.observe(advice.proxy_cost_seconds);
}

Advice advise(std::uint64_t file_size, double access_fraction,
              const nws::LinkEstimate& link, const AdvisorPolicy& policy) {
  const Advice advice =
      advise_quiet(file_size, access_fraction, link, policy);
  record_advice(advice);
  return advice;
}

}  // namespace griddles::remote
