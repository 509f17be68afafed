// Ambient end-to-end deadlines (DESIGN.md §14).
//
// A workflow operation carries one wall-clock deadline from the top of
// the call tree down through every hop: the runner installs it, the RPC
// client stamps the remaining budget into each outgoing frame, and the
// RPC server re-installs the (decremented) budget around the handler so
// nested hops shrink it further. The context is thread-local — threads
// spawned mid-operation (copier streams, workflow stages) must capture
// `current_deadline()` and re-install it, exactly like the
// obs::TraceContext they already carry.
#pragma once

#include <optional>

#include "src/common/clock.h"
#include "src/common/status.h"

namespace griddles {

/// The calling thread's ambient wall-clock deadline, if any.
std::optional<WallClock::time_point> current_deadline() noexcept;

/// Wall time left until the ambient deadline (negative once expired);
/// nullopt when no deadline is installed.
std::optional<Duration> remaining_budget() noexcept;

/// True when an ambient deadline exists and has already passed.
bool deadline_expired() noexcept;

/// kDeadlineExceeded naming `what` when the ambient deadline has
/// passed; OK otherwise (including when no deadline is installed).
Status check_deadline(const char* what);

/// Installs a deadline for the current scope. Never *extends* an
/// enclosing deadline: the effective deadline is the minimum of the
/// enclosing one and the one given, so a downstream hop can only
/// shrink the budget. A nullopt argument leaves the context unchanged.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(
      std::optional<WallClock::time_point> deadline) noexcept;
  explicit ScopedDeadline(WallClock::time_point deadline) noexcept
      : ScopedDeadline(std::optional<WallClock::time_point>(deadline)) {}
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  std::optional<WallClock::time_point> saved_;
};

}  // namespace griddles
