#include "src/obs/span.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/obs/export.h"
#include "src/obs/metrics.h"

namespace griddles::obs {

/// The thread-local side of the collector: an unsynchronized span buffer
/// plus this thread's viewer-lane ordinal. The destructor flushes what
/// is left when the thread exits, so short-lived workers (copier chunk
/// streams, RPC connection threads) never strand spans. Namespace scope
/// (not anonymous) so the friend declaration in SpanCollector binds.
class ThreadSpanBuffer {
 public:
  ThreadSpanBuffer() : tid_(next_tid()) {
    buffer_.reserve(SpanCollector::kThreadFlushBatch);
  }
  ~ThreadSpanBuffer() {
    if (!buffer_.empty()) SpanCollector::global().store_batch(buffer_);
  }

  std::uint32_t tid() const noexcept { return tid_; }

  void push(SpanRecord&& record) {
    buffer_.push_back(std::move(record));
    if (buffer_.size() >= SpanCollector::kThreadFlushBatch) flush();
  }

  void flush() {
    if (!buffer_.empty()) SpanCollector::global().store_batch(buffer_);
  }

 private:
  static std::uint32_t next_tid() noexcept {
    // lint: not-a-metric (trace-viewer lane ordinal)
    static std::atomic<std::uint32_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint32_t tid_;
  std::vector<SpanRecord> buffer_;
};

namespace {

ThreadSpanBuffer& thread_buffer() {
  thread_local ThreadSpanBuffer buffer;
  return buffer;
}

thread_local TraceContext g_current_context;

Counter& dropped_counter() {
  static Counter& counter =
      MetricsRegistry::global().counter("obs.span.dropped");
  return counter;
}

}  // namespace

std::string_view span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kWorkflow:
      return "workflow";
    case SpanKind::kStage:
      return "stage";
    case SpanKind::kSchedule:
      return "schedule";
    case SpanKind::kOpen:
      return "open";
    case SpanKind::kBufferWait:
      return "buffer_wait";
    case SpanKind::kCopy:
      return "copy";
    case SpanKind::kChunk:
      return "chunk";
    case SpanKind::kRpc:
      return "rpc";
    case SpanKind::kRetry:
      return "retry";
    case SpanKind::kFailover:
      return "failover";
    case SpanKind::kRecovery:
      return "recovery";
    case SpanKind::kRelay:
      return "relay";
    case SpanKind::kShed:
      return "shed";
    case SpanKind::kDeadlineExpired:
      return "deadline_expired";
    case SpanKind::kFile:
      return "file";
    case SpanKind::kOther:
      return "other";
  }
  return "other";
}

SpanCollector& SpanCollector::global() {
  // Leaky singleton: thread-local buffer destructors flush into it at
  // thread exit, which may run after static destructors would have.
  static SpanCollector* collector = new SpanCollector();
  return *collector;
}

SpanCollector::SpanCollector() : wall_origin_(WallClock::now()) {
  // Register the drop counter before any hot path needs it, so the
  // store_batch overflow path never takes the registry lock.
  dropped_counter();
}

double SpanCollector::model_now_s() const noexcept {
  const Clock* clock = model_clock_.load(std::memory_order_acquire);
  return clock == nullptr ? 0.0 : to_seconds_d(clock->now());
}

void SpanCollector::record(SpanRecord record) {
  if (!enabled()) return;
  ThreadSpanBuffer& buffer = thread_buffer();
  if (record.tid == 0) record.tid = buffer.tid();
  buffer.push(std::move(record));
}

void SpanCollector::store_batch(std::vector<SpanRecord>& batch) {
  std::size_t dropped = 0;
  {
    MutexLock lock(mu_);
    for (SpanRecord& record : batch) {
      if (spans_.size() >= capacity_) {
        ++dropped;
        continue;
      }
      spans_.push_back(std::move(record));
    }
  }
  batch.clear();
  if (dropped > 0) {
    dropped_.fetch_add(dropped, std::memory_order_relaxed);
    dropped_counter().add(dropped);
  }
}

std::vector<SpanRecord> SpanCollector::drain() {
  flush_thread_buffer();
  std::vector<SpanRecord> out;
  MutexLock lock(mu_);
  out.swap(spans_);
  return out;
}

void SpanCollector::flush_thread_buffer() { thread_buffer().flush(); }

void SpanCollector::set_capacity(std::size_t max_spans) {
  MutexLock lock(mu_);
  capacity_ = max_spans;
}

namespace {

std::string u64_string(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

}  // namespace

std::string to_chrome_event(const SpanRecord& record) {
  // Complete ("X") event: ts/dur in wall microseconds since the
  // collector origin. The 64-bit ids go into args as strings — JSON
  // readers that parse numbers as doubles would corrupt them.
  std::string out = "{\"name\":";
  out += json_quote(record.name);
  out += ",\"cat\":";
  out += json_quote(span_kind_name(record.kind));
  out += ",\"ph\":\"X\",\"ts\":";
  out += json_number(record.wall_start_s * 1e6);
  out += ",\"dur\":";
  out += json_number((record.wall_end_s - record.wall_start_s) * 1e6);
  out += ",\"pid\":1,\"tid\":";
  out += u64_string(record.tid);
  out += ",\"args\":{\"trace_id\":\"";
  out += u64_string(record.trace_id);
  out += "\",\"span_id\":\"";
  out += u64_string(record.span_id);
  out += "\",\"parent_id\":\"";
  out += u64_string(record.parent_id);
  out += "\",\"model_start_s\":";
  out += json_number(record.model_start_s);
  out += ",\"model_end_s\":";
  out += json_number(record.model_end_s);
  for (const auto& [key, value] : record.attrs) {
    out += ',';
    out += json_quote(key);
    out += ':';
    out += json_quote(value);
  }
  out += "}}";
  return out;
}

std::string to_chrome_json(const std::vector<SpanRecord>& records) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& record : records) {
    if (!first) out += ",\n";
    first = false;
    out += to_chrome_event(record);
  }
  out += "]}\n";
  return out;
}

TraceContext current_context() noexcept { return g_current_context; }

ScopedTraceContext::ScopedTraceContext(TraceContext context) noexcept
    : saved_(g_current_context) {
  g_current_context = context;
}

ScopedTraceContext::~ScopedTraceContext() { g_current_context = saved_; }

Span::Span(SpanKind kind, std::string_view name) {
  if (!SpanCollector::global().enabled()) return;
  start(kind, name, g_current_context);
}

Span::Span(SpanKind kind, std::string_view name, TraceContext parent) {
  if (!SpanCollector::global().enabled()) return;
  start(kind, name, parent);
}

std::unique_ptr<Span> Span::detached(SpanKind kind, std::string_view name) {
  if (!SpanCollector::global().enabled()) return nullptr;
  std::unique_ptr<Span> span(new Span());
  span->start(kind, name, g_current_context, /*install=*/false);
  return span;
}

void Span::start(SpanKind kind, std::string_view name, TraceContext parent,
                 bool install) {
  SpanCollector& collector = SpanCollector::global();
  active_ = true;
  record_.kind = kind;
  record_.name.assign(name);
  record_.span_id = collector.next_id();
  if (parent.valid()) {
    record_.trace_id = parent.trace_id;
    record_.parent_id = parent.span_id;
  } else {
    record_.trace_id = collector.next_id();
    record_.parent_id = 0;
  }
  record_.wall_start_s = collector.wall_now_s();
  record_.model_start_s = collector.model_now_s();
  if (!install) return;
  saved_ = g_current_context;
  g_current_context = TraceContext{record_.trace_id, record_.span_id};
  installed_ = true;
}

void Span::end() {
  if (!active_ || ended_) return;
  ended_ = true;
  if (installed_) {
    g_current_context = saved_;
    installed_ = false;
  }
  SpanCollector& collector = SpanCollector::global();
  record_.wall_end_s = collector.wall_now_s();
  record_.model_end_s = collector.model_now_s();
  collector.record(std::move(record_));
}

Span::~Span() { end(); }

void Span::add_attr(std::string_view key, std::string_view value) {
  if (!active_ || ended_) return;
  record_.attrs.emplace_back(std::string(key), std::string(value));
}

TraceContext Span::context() const noexcept {
  if (!active_ || ended_) return TraceContext{};
  return TraceContext{record_.trace_id, record_.span_id};
}

}  // namespace griddles::obs
