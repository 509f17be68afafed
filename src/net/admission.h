// Server-side admission control and load shedding (DESIGN.md §14).
//
// Every admitted RPC request acquires `cost` units of a fixed service
// capacity before its handler runs; requests beyond capacity wait in a
// bounded queue. A request is *shed* — rejected up front with a typed
// kResourceExhausted, reject-newest — when the queue is full or the
// estimated queue delay (queued cost × EMA service time / capacity)
// crosses the configured limit. Queue waits are additionally bounded by
// the request's end-to-end deadline (src/common/deadline.h) and by
// `max_wait`, so an overloaded server turns excess work away quickly
// instead of buffering it into a timeout cascade.
//
// The `burst@rpc:<key>` fault op (src/fault/plan.h) injects
// deterministic overload here: while a burst rule fires, every admit
// accounts its cost multiplied by the rule's factor, so shedding and
// deadline expiry trigger without any real extra traffic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace griddles::net {

class AdmissionController {
 public:
  struct Options {
    // Cost units servable concurrently. Each admitted request holds its
    // cost (one unit from RpcServer) from admit() until Permit release.
    std::uint32_t capacity = 64;
    // Cost units allowed to wait beyond capacity before reject-newest.
    std::uint32_t max_queued = 256;
    // Shed when (queued + incoming) * ema_service / capacity exceeds
    // this estimated queue delay.
    Duration max_queue_delay = std::chrono::seconds(1);
    // Queue-wait bound for requests that carry no deadline of their own.
    Duration max_wait = std::chrono::seconds(2);
  };

  /// RAII admission slot: releases its cost units and feeds the
  /// service-time estimate when destroyed.
  class Permit {
   public:
    Permit() = default;
    Permit(Permit&& other) noexcept : Permit() { swap(other); }
    Permit& operator=(Permit&& other) noexcept {
      swap(other);
      return *this;
    }
    ~Permit() { release(); }

    void release();

   private:
    friend class AdmissionController;
    Permit(AdmissionController* owner, std::uint32_t cost,
           WallClock::time_point admitted_at)
        : owner_(owner), cost_(cost), admitted_at_(admitted_at) {}
    void swap(Permit& other) noexcept {
      std::swap(owner_, other.owner_);
      std::swap(cost_, other.cost_);
      std::swap(admitted_at_, other.admitted_at_);
    }

    AdmissionController* owner_ = nullptr;
    std::uint32_t cost_ = 0;
    WallClock::time_point admitted_at_{};
  };

  /// `site_key` names this server in fault-plan consults (burst rules
  /// match it by glob) and in shed span labels. RpcServer passes
  /// "<host>/<service>" so a glob can target one service class on a
  /// machine (e.g. "*/gbuf-*" for Grid Buffer servers only).
  explicit AdmissionController(std::string site_key)
      : AdmissionController(std::move(site_key), Options()) {}
  AdmissionController(std::string site_key, Options options);

  /// Admits `cost` units, waiting in the bounded queue if capacity is
  /// busy. Sheds with kResourceExhausted (reject-newest) on overflow or
  /// estimated-delay breach; kDeadlineExceeded when the caller's budget
  /// expires while queued; kUnavailable after close(). A cost of 0
  /// admits immediately without occupying capacity (for handlers that
  /// block server-side and must not starve the queue).
  Result<Permit> admit(std::uint32_t cost, std::uint16_t method);

  /// Unblocks every queued waiter; subsequent admits fail kUnavailable.
  void close();

  // Introspection for tests and benches.
  std::uint32_t in_flight() const;
  std::uint32_t queued() const;
  double ema_service_seconds() const;

 private:
  friend class Permit;
  void release(std::uint32_t cost, WallClock::time_point admitted_at);
  /// Cost multiplier from an armed burst rule (1 when none fires).
  double burst_factor() const;

  const std::string site_key_;
  const Options options_;

  mutable Mutex mu_ ACQUIRED_BEFORE("MetricsRegistry::mu_");
  CondVar slot_free_;
  std::uint32_t in_flight_ GUARDED_BY(mu_) = 0;
  std::uint32_t queued_ GUARDED_BY(mu_) = 0;
  double ema_service_s_ GUARDED_BY(mu_) = 1e-3;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace griddles::net
