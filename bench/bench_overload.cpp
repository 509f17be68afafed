// Overload robustness bench (DESIGN.md §14): goodput and tail latency
// at 2x offered load, with and without deadline propagation + admission
// control.
//
// One RPC server with a single unit of service capacity (a handler that
// holds a lock for a fixed service time) is driven by closed-loop
// clients, each wanting its reply within a fixed deadline:
//
//   peak      — sustainable load (clients sized so every request beats
//               its deadline) with shedding on: the goodput ceiling.
//   control   — 2x the sustainable client count, shedding OFF and no
//               deadline on the wire. Clients give up at the deadline
//               (call_until) and immediately re-offer, but the server —
//               never told about the budget — still executes every
//               abandoned request. Wasted capacity compounds: the
//               backlog grows without bound and goodput collapses.
//   shedded   — the same 2x load with deadlines propagated and a
//               bounded admission queue: excess requests are rejected
//               up front (kResourceExhausted, reject-newest), admitted
//               ones finish inside the budget, and goodput stays at
//               the peak-arm ceiling.
//
// `BENCH_overload.json` records everything; the committed baseline
// gates only the lower-is-better invariants (shedded p99, peak/shedded
// goodput ratio). The bench itself asserts the acceptance criterion:
// shedded goodput >= 80% of peak while the control arm degrades.
//
//   ./bench_overload [--fast]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/table_common.h"
#include "src/common/deadline.h"
#include "src/net/inproc.h"
#include "src/net/rpc.h"
#include "src/obs/metrics.h"

using namespace griddles;
using std::chrono::milliseconds;

namespace {

constexpr std::uint16_t kMethod = 1;
constexpr auto kService = milliseconds(5);   // per-request capacity cost
constexpr auto kDeadline = milliseconds(30); // client budget per request
constexpr int kPeakClients = 4;              // 4 * 5ms = 20ms < 30ms
constexpr int kOverloadClients = 8;          // 2x the sustainable load

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

struct ArmResult {
  double goodput_rps = 0;  // replies that beat their deadline, per sec
  double p99_ms = 0;       // p99 latency of completed (OK) replies
  std::uint64_t ok = 0;
  std::uint64_t late = 0;     // completed but past the budget / timed out
  std::uint64_t shed = 0;     // kResourceExhausted from admission
  std::uint64_t expired = 0;  // kDeadlineExceeded along the chain
};

double percentile_ms(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  return samples[index];
}

/// Drives `clients` closed-loop callers against a 1-unit-capacity server
/// for `duration` wall time. `shedding` selects the whole §14 stack
/// (propagated deadlines + bounded admission) vs the control.
ArmResult run_arm(bool shedding, int clients, milliseconds duration) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("dione");

  // The service bottleneck: one request's work at a time, kService each.
  std::mutex work_mu;
  net::RpcServer server(*server_transport,
                        net::inproc_endpoint("dione", "svc"));
  server.register_method(
      kMethod, [&](ByteSpan, const net::RpcContext&) -> Result<Bytes> {
        std::lock_guard<std::mutex> lock(work_mu);
        std::this_thread::sleep_for(kService);
        return Bytes{};
      });
  net::AdmissionController::Options admission;
  if (shedding) {
    admission.capacity = 1;   // mirrors the real service capacity
    admission.max_queued = 3; // 3 * 5ms queued + 5ms service < 30ms
  } else {
    // Control: admission present but effectively infinite — nothing is
    // ever shed, every request runs no matter how stale.
    admission.capacity = 1u << 20;
    admission.max_queued = 1u << 20;
  }
  server.set_admission(admission);
  if (const Status started = server.start(); !started.is_ok()) {
    std::fprintf(stderr, "server start: %s\n",
                 started.to_string().c_str());
    std::exit(1);
  }

  std::mutex merge_mu;
  ArmResult total;
  std::vector<double> ok_latencies_ms;
  std::atomic<bool> running{true};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      auto transport = network.transport(strings::cat("client", i));
      net::RpcClient client(*transport, server.endpoint());
      ArmResult local;
      std::vector<double> latencies;
      while (running.load(std::memory_order_relaxed)) {
        const WallClock::time_point sent = WallClock::now();
        Result<Buffer> reply = [&] {
          if (shedding) {
            // The §14 path: the budget rides the frame; the server
            // rejects work it cannot finish in time.
            ScopedDeadline budget(sent + kDeadline);
            return client.call(kMethod, {});
          }
          // Control: the client gives up at the deadline but the server
          // is never told — abandoned work still burns capacity.
          return client.call_until(kMethod, {}, sent + kDeadline);
        }();
        const double elapsed_ms =
            to_seconds_d(WallClock::now() - sent) * 1e3;
        if (reply.is_ok()) {
          latencies.push_back(elapsed_ms);
          if (elapsed_ms <= static_cast<double>(kDeadline.count())) {
            ++local.ok;
          } else {
            ++local.late;
          }
          continue;
        }
        switch (reply.status().code()) {
          case ErrorCode::kResourceExhausted:
            ++local.shed;
            break;
          case ErrorCode::kDeadlineExceeded:
            ++local.expired;
            break;
          default:
            ++local.late;
            // The abandoned request is still in flight server-side; a
            // fresh connection keeps this client's offered load up.
            client.reset_connection();
            break;
        }
        // Back off one tick so rejected callers poll, not busy-spin.
        std::this_thread::sleep_for(milliseconds(1));
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      total.ok += local.ok;
      total.late += local.late;
      total.shed += local.shed;
      total.expired += local.expired;
      ok_latencies_ms.insert(ok_latencies_ms.end(), latencies.begin(),
                             latencies.end());
    });
  }

  std::this_thread::sleep_for(duration);
  running = false;
  for (auto& thread : threads) thread.join();
  server.stop();

  total.goodput_rps = static_cast<double>(total.ok) /
                      (static_cast<double>(duration.count()) * 1e-3);
  total.p99_ms = percentile_ms(ok_latencies_ms, 0.99);
  return total;
}

void print_arm(const char* name, const ArmResult& arm) {
  std::printf(
      "%-22s %8.1f rps   p99 %6.2f ms   ok %6llu  late %5llu  "
      "shed %6llu  expired %5llu\n",
      name, arm.goodput_rps, arm.p99_ms,
      static_cast<unsigned long long>(arm.ok),
      static_cast<unsigned long long>(arm.late),
      static_cast<unsigned long long>(arm.shed),
      static_cast<unsigned long long>(arm.expired));
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  }
  const auto duration = milliseconds(fast ? 500 : 2000);

  bench::print_header(
      "Overload robustness",
      "1-unit service, 5ms/req, 30ms budgets, 2x offered load");
  std::printf("(%d clients sustainable; overload arms run %d; %lld ms "
              "per arm)\n\n",
              kPeakClients, kOverloadClients,
              static_cast<long long>(duration.count()));

  const std::uint64_t shed_before = counter_value("overload.shed");
  const std::uint64_t expired_before = counter_value("deadline.expired");

  const ArmResult peak = run_arm(/*shedding=*/true, kPeakClients, duration);
  const ArmResult control =
      run_arm(/*shedding=*/false, kOverloadClients, duration);
  const ArmResult shedded =
      run_arm(/*shedding=*/true, kOverloadClients, duration);

  print_arm("peak (1x, shedding)", peak);
  print_arm("2x load, control", control);
  print_arm("2x load, shedding", shedded);

  const double ratio =
      shedded.goodput_rps > 0 ? peak.goodput_rps / shedded.goodput_rps
                              : 1e9;
  std::printf(
      "\n2x-load goodput: shedding keeps %.0f%% of peak; control keeps "
      "%.0f%%\n(shed %llu requests, expired %llu along the chain)\n",
      100.0 * shedded.goodput_rps / std::max(1.0, peak.goodput_rps),
      100.0 * control.goodput_rps / std::max(1.0, peak.goodput_rps),
      static_cast<unsigned long long>(counter_value("overload.shed") -
                                      shed_before),
      static_cast<unsigned long long>(counter_value("deadline.expired") -
                                      expired_before));

  bench::BenchJson json("overload");
  // Gated (committed baseline): lower is better for both.
  json.add_time("shedded_p99_ms", shedded.p99_ms);
  json.add_time("peak_over_shedded_goodput", ratio);
  // Informational (no baseline entry, never gated).
  json.add_time("peak_goodput_rps", peak.goodput_rps);
  json.add_time("control_goodput_rps", control.goodput_rps);
  json.add_time("shedded_goodput_rps", shedded.goodput_rps);
  json.add_time("control_p99_ms", control.p99_ms);
  const bool wrote = json.write();

  // Acceptance: shedding + deadlines hold >= 80% of peak goodput at 2x
  // load while the control arm degrades below the shedded arm.
  if (shedded.goodput_rps < 0.8 * peak.goodput_rps) {
    std::fprintf(stderr,
                 "FAIL: shedded goodput %.1f rps < 80%% of peak %.1f rps\n",
                 shedded.goodput_rps, peak.goodput_rps);
    return 1;
  }
  if (control.goodput_rps >= shedded.goodput_rps) {
    std::fprintf(stderr,
                 "FAIL: control goodput %.1f rps did not degrade below "
                 "the shedded arm's %.1f rps\n",
                 control.goodput_rps, shedded.goodput_rps);
    return 1;
  }
  return wrote ? 0 : 1;
}
