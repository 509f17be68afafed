// AccessAdvisor: the copy-vs-proxy heuristic of paper §3.1.
//
//   "If an application reads a small fraction of the remote file, it may
//    not warrant copying it to the local file system. Further, if the
//    file is very large, it may not be possible to copy it [...]. On the
//    other hand, if a file is small and the latency to the remote system
//    is high, then it is more efficient to copy the file."
//
// The advisor turns that prose into a cost model over (file size,
// expected access fraction, link estimate) and picks the cheaper plan.
#pragma once

#include <cstdint>

#include "src/nws/forecast.h"

namespace griddles::remote {

enum class RemoteStrategy : std::uint8_t { kCopy = 0, kProxy = 1 };

struct AdvisorPolicy {
  std::uint32_t proxy_block_size = 64u << 10;  // per-request proxy payload
  /// Files larger than this are never copied (0 = no cap) — the paper's
  /// "may not be possible to copy it".
  std::uint64_t max_copy_bytes = 0;
};

struct Advice {
  RemoteStrategy strategy = RemoteStrategy::kCopy;
  double copy_cost_seconds = 0;
  double proxy_cost_seconds = 0;
};

/// Estimates both plans and picks the cheaper one. Pure scoring — no
/// telemetry; use it to price candidate legs of a multi-destination copy
/// without each leg counting as a separate advisor decision.
Advice advise_quiet(std::uint64_t file_size, double access_fraction,
                    const nws::LinkEstimate& link,
                    const AdvisorPolicy& policy);

/// Records one logical decision into `advisor.decisions.*` and the
/// predicted-cost histograms. A multi-destination copy scores every leg
/// with advise_quiet() and records the bottleneck leg exactly once.
void record_advice(const Advice& advice);

/// Estimates both plans and picks the cheaper one, recording the
/// decision (advise_quiet + record_advice).
///
/// Copy: parallel-stream bulk transfer — a handful of round trips plus
/// size/bandwidth. Proxy: one request/response round trip per touched
/// block, of which access_fraction * size / block_size are expected.
Advice advise(std::uint64_t file_size, double access_fraction,
              const nws::LinkEstimate& link, const AdvisorPolicy& policy);

inline Advice advise(std::uint64_t file_size, double access_fraction,
                     const nws::LinkEstimate& link) {
  return advise(file_size, access_fraction, link, AdvisorPolicy{});
}

}  // namespace griddles::remote
