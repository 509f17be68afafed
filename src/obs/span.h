// Causal tracing: per-workflow span trees with cross-thread and
// cross-RPC context propagation (see DESIGN.md §11 "Causal tracing").
//
// Spans are the one tracing model. Every span carries a (trace_id,
// span_id, parent_id) triple, so an exported run reassembles into the
// tree workflow -> stage -> open/copy/rpc/buffer-wait/retry, and
// tools/tracepath.py can walk the tree backwards from the end of the run
// to name the critical path and attribute wall time to compute, buffer
// waits, network transfers and fault retries. The per-file IO trace is a
// view over the same records: the File Multiplexer keeps one detached
// `file` span per descriptor (open to close, with byte and call counts
// as attributes), and `workflow_cli --trace=` writes just those.
//
// Overhead contract: tracing is off by default, and a disabled hook is
// ONE relaxed atomic load (Span's constructor checks and records
// nothing). Enabled, record() appends to a bounded per-thread buffer
// with no lock; the buffer flushes into the central store (one short
// mutex section) every kThreadFlushBatch spans, and the central store is
// capacity-bounded — overflow drops spans and counts them in the
// `obs.span.dropped` counter rather than growing without bound.
//
// Context propagation rules:
//   - same thread: obs::Span installs itself as the thread's current
//     context for its lifetime (strict stack discipline);
//   - new thread: capture obs::current_context() before spawning and
//     install it in the thread with obs::ScopedTraceContext;
//   - RPC hop: RpcClient stamps the current context into the request
//     frame (net::RpcFrame::trace_id/span_id); RpcServer installs it
//     around the handler, so server-side spans parent to the caller.
//
// Always create spans through the RAII obs::Span helper — naked
// SpanRecord construction outside src/obs/ is rejected by tools/lint.py
// (check `naked-span`), because a begin without a guaranteed end leaves
// half-open spans that break the exported timeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/thread_annotations.h"

namespace griddles::obs {

/// Span taxonomy (DESIGN.md §11 lists the emitter of each kind).
/// tracepath.py maps kinds onto its four attribution buckets:
/// compute (workflow/stage/schedule self time), buffer-wait, network
/// (open/copy/chunk/rpc), retry (retry/failover/recovery).
enum class SpanKind : std::uint8_t {
  kWorkflow,    // one whole WorkflowRunner::run
  kStage,       // one application kernel execution
  kSchedule,    // scheduler machine-assignment search
  kOpen,        // one FileMultiplexer OPEN (GNS lookup + client build)
  kBufferWait,  // Grid Buffer channel blocked read/backpressured write
  kCopy,        // one whole-file staged transfer
  kChunk,       // one chunk of a staged transfer
  kRpc,         // server-side handling of one RPC request
  kRetry,       // one retry attempt (backoff + re-call) after a failure
  kFailover,    // a replica failure survived by moving to the next one
  kRecovery,    // a failed stage re-run via the fallback coupling
  kRelay,       // one multicast relay hop (write + forward to children)
  kShed,        // a request rejected by admission control (overload)
  kDeadlineExpired,  // work abandoned because its budget ran out
  kFile,        // one FileMultiplexer descriptor, open to close (detached)
  kOther,
};

std::string_view span_kind_name(SpanKind kind) noexcept;

/// The propagation triple. trace_id == 0 means "no active trace".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool valid() const noexcept { return trace_id != 0; }
};

/// One finished span. Carries both clocks: model seconds (testbed time,
/// comparable with TaskResult numbers) and wall seconds since the
/// collector's process-wide origin (what the Chrome trace timeline and
/// the critical path use).
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 for a root span
  SpanKind kind = SpanKind::kOther;
  std::string name;
  double wall_start_s = 0;
  double wall_end_s = 0;
  double model_start_s = 0;  // 0 when no model clock is registered
  double model_end_s = 0;
  std::uint32_t tid = 0;  // small per-thread ordinal (trace viewer lane)
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Collects finished spans. enabled() is the one-relaxed-load fast path;
/// record() is lock-free into a per-thread buffer (the batch flush takes
/// the central mutex once per kThreadFlushBatch spans).
class SpanCollector {
 public:
  /// Spans a thread accumulates before flushing to the central store.
  static constexpr std::size_t kThreadFlushBatch = 64;
  /// Default bound on centrally stored spans (~a few hundred MB worst
  /// case is unacceptable; ~1M spans of ~200B is the ceiling we accept).
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  /// The process-wide collector every subsystem reports into.
  static SpanCollector& global();

  SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Registers the model clock spans stamp model_start/end_s with (the
  /// testbed clock). Null reverts to wall-only stamping.
  void set_model_clock(const Clock* clock) noexcept {
    model_clock_.store(clock, std::memory_order_release);
  }
  /// Current model seconds (0 when no clock is registered).
  double model_now_s() const noexcept;

  /// Wall seconds since the collector's origin (the timeline every
  /// span's wall stamps share).
  double wall_now_s() const noexcept {
    return to_seconds_d(WallClock::now() - wall_origin_);
  }

  /// Process-unique nonzero id for traces and spans (counts up from 1).
  std::uint64_t next_id() noexcept {
    return id_counter_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Raw sink — use the RAII obs::Span helper instead (lint-enforced).
  /// No-op when disabled. Thread-buffered; bounded centrally.
  void record(SpanRecord record);

  /// Flushes the calling thread's buffer and removes and returns every
  /// centrally stored span. Buffers of other still-live threads flush on
  /// their next batch boundary or thread exit, so drain after joining
  /// the workers whose spans matter.
  std::vector<SpanRecord> drain();

  /// Spans dropped on central-store overflow since construction (also
  /// mirrored into the `obs.span.dropped` counter).
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Overrides the central-store capacity (tests exercise overflow).
  void set_capacity(std::size_t max_spans);

  /// Flushes the calling thread's buffer into the central store (called
  /// automatically at batch boundaries and thread exit).
  void flush_thread_buffer();

 private:
  friend class ThreadSpanBuffer;

  void store_batch(std::vector<SpanRecord>& batch);

  std::atomic<bool> enabled_{false};
  std::atomic<const Clock*> model_clock_{nullptr};
  const WallClock::time_point wall_origin_;
  // lint: not-a-metric (id generator)
  std::atomic<std::uint64_t> id_counter_{1};
  // lint: not-a-metric (overflow accounting mirrored into obs.span.dropped)
  std::atomic<std::uint64_t> dropped_{0};

  mutable Mutex mu_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
  std::size_t capacity_ GUARDED_BY(mu_) = kDefaultCapacity;
};

/// Renders one span as a Chrome trace-event object (one line, no \n).
std::string to_chrome_event(const SpanRecord& record);

/// Renders spans as a Chrome trace-event / Perfetto JSON document (load
/// the file in chrome://tracing or ui.perfetto.dev).
std::string to_chrome_json(const std::vector<SpanRecord>& records);

/// The calling thread's current trace context (invalid when none).
TraceContext current_context() noexcept;

/// Installs `context` as the thread's current context for the scope —
/// the cross-thread / cross-RPC propagation primitive.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context) noexcept;
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// RAII span. Construction (when the collector is enabled) opens a span
/// as a child of the thread's current context — or a new root trace when
/// there is none — and installs itself as the current context;
/// destruction (or an early end()) stamps the end times, records the
/// span, and restores the previous context. When the collector is
/// disabled the constructor is one relaxed atomic load and everything
/// else is a no-op.
class Span {
 public:
  Span(SpanKind kind, std::string_view name);
  /// Explicit parent (cross-thread handoff without ScopedTraceContext).
  /// An invalid `parent` starts a new root trace.
  Span(SpanKind kind, std::string_view name, TraceContext parent);
  /// As Span(kind, name), with the name built by `make_name()` only when
  /// the collector is enabled, so a disabled span allocates nothing.
  template <typename MakeName>
    requires std::is_invocable_r_v<std::string, MakeName&>
  Span(SpanKind kind, MakeName&& make_name) {
    if (SpanCollector::global().enabled()) {
      start(kind, make_name(), current_context());
    }
  }
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// A child of the thread's current context that is NOT installed as
  /// the current context, so it may outlive the scope that opened it and
  /// end on any thread without disturbing the stack of spans opened
  /// meanwhile. Null when the collector is disabled.
  static std::unique_ptr<Span> detached(SpanKind kind, std::string_view name);
  /// As above; `make_name()` runs only when the collector is enabled.
  template <typename MakeName>
    requires std::is_invocable_r_v<std::string, MakeName&>
  static std::unique_ptr<Span> detached(SpanKind kind, MakeName&& make_name) {
    if (!SpanCollector::global().enabled()) return nullptr;
    return detached(kind, std::string_view(make_name()));
  }

  /// Attaches a key=value attribute (no-op when inactive).
  void add_attr(std::string_view key, std::string_view value);
  /// As above; `make_value()` runs only when the span is active.
  template <typename MakeValue>
    requires std::is_invocable_r_v<std::string, MakeValue&>
  void add_attr(std::string_view key, MakeValue&& make_value) {
    if (active_ && !ended_) add_attr(key, std::string_view(make_value()));
  }

  /// Ends and records the span now (idempotent; the destructor then does
  /// nothing). Restores the previous thread context.
  void end();

  /// True when the collector was enabled at construction.
  bool active() const noexcept { return active_; }

  /// This span's context — what to propagate to children on other
  /// threads or across RPC.
  TraceContext context() const noexcept;

 private:
  Span() = default;
  void start(SpanKind kind, std::string_view name, TraceContext parent,
             bool install = true);

  bool active_ = false;
  bool ended_ = false;
  bool installed_ = false;  // restored context on end
  TraceContext saved_;
  SpanRecord record_;
};

}  // namespace griddles::obs
