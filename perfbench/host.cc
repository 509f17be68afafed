// Host measurements, the host-speed probe, allocation counting and the
// benchmark's span recorder.

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <new>
#include <thread>

#include "perfbench/bench.h"
#include "src/common/strings.h"
#include "src/obs/span.h"

// ---- Allocation counting ----------------------------------------------------
//
// Global operator new/delete are replaced in this binary only. Each thread
// bumps one of 64 cache-line-padded slots, so counting adds no shared
// cache line to the allocation path.

namespace {

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> count{0};
};
AllocSlot g_alloc_slots[64];

void count_allocation() noexcept {
  static std::atomic<unsigned> next_slot{0};
  thread_local const unsigned slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % 64;
  g_alloc_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* checked_malloc(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* checked_aligned(std::size_t size, std::align_val_t align) {
  count_allocation();
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + alignment - 1) / alignment *
      alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return checked_malloc(size); }
void* operator new[](std::size_t size) { return checked_malloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return checked_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation();
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const AllocSlot& slot : g_alloc_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

// ---- Clocks and memory ------------------------------------------------------

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A "VmXXX:   1234 kB" line of /proc/self/status, in MB.
double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtod(line.c_str() + key_len, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0;
}
}  // namespace

double wall_s() { return clock_s(CLOCK_MONOTONIC); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double rss_mb() { return proc_status_mb("VmRSS:"); }
double peak_rss_mb() { return proc_status_mb("VmHWM:"); }

void reset_peak_rss() {
  // Hand free heap pages back first, so every iteration starts from the
  // same floor whatever earlier iterations left in malloc's arenas; then
  // "5" resets this process's VmHWM to its current RSS (Linux >= 4.0).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

std::string describe(const std::vector<double>& values) {
  if (values.empty()) return "n=0";
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return griddles::strings::cat("median=", median(values), " [", *lo, ", ",
                                *hi, "] n=", values.size());
}

// ---- Host-speed probe -------------------------------------------------------

namespace {

constexpr std::size_t kProbeWords = 64 * 1024 / sizeof(std::uint64_t);
constexpr std::size_t kProbeSlots = 4;
constexpr int kProbeBlocksPerPair = 500;

/// One producer/consumer pair: a ring of four 64 KiB slots guarded by a
/// mutex and two condition variables.
struct ProbePair {
  std::mutex mu;
  std::condition_variable not_empty;
  std::condition_variable not_full;
  std::size_t head = 0;  // next slot to consume
  std::size_t count = 0;
  std::array<std::array<std::uint64_t, kProbeWords>, kProbeSlots> slots{};
  std::array<std::uint64_t, kProbeWords> source{};
  std::array<std::uint64_t, kProbeWords> sink{};
  std::uint64_t hash = 0;
};

void probe_producer(ProbePair& pair, std::atomic<double>& cpu) {
  const double cpu0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  for (int block = 0; block < kProbeBlocksPerPair; ++block) {
    std::unique_lock lock(pair.mu);
    pair.not_full.wait(lock, [&] { return pair.count < kProbeSlots; });
    const std::size_t slot = (pair.head + pair.count) % kProbeSlots;
    lock.unlock();
    pair.source[static_cast<std::size_t>(block) % kProbeWords] += 1;
    std::memcpy(pair.slots[slot].data(), pair.source.data(),
                sizeof(pair.source));
    lock.lock();
    ++pair.count;
    lock.unlock();
    pair.not_empty.notify_one();
  }
  cpu.store(clock_s(CLOCK_THREAD_CPUTIME_ID) - cpu0);
}

void probe_consumer(ProbePair& pair, std::atomic<double>& cpu) {
  const double cpu0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
  std::uint64_t hash = 0x9e3779b97f4a7c15ULL;
  for (int block = 0; block < kProbeBlocksPerPair; ++block) {
    std::unique_lock lock(pair.mu);
    pair.not_empty.wait(lock, [&] { return pair.count > 0; });
    const std::size_t slot = pair.head;
    lock.unlock();
    std::memcpy(pair.sink.data(), pair.slots[slot].data(), sizeof(pair.sink));
    for (const std::uint64_t word : pair.sink) {
      hash = (hash ^ word) * 0x100000001b3ULL;
    }
    lock.lock();
    pair.head = (pair.head + 1) % kProbeSlots;
    --pair.count;
    lock.unlock();
    pair.not_full.notify_one();
  }
  pair.hash = hash;
  cpu.store(clock_s(CLOCK_THREAD_CPUTIME_ID) - cpu0);
}

}  // namespace

ProbeSample run_probe() {
  static std::array<ProbePair, 2> pairs;  // 768 KiB of buffers, reused
  std::array<std::atomic<double>, 4> thread_cpu{};
  const double cpu0 = process_cpu_s();
  const double t0 = wall_s();
  {
    std::array<std::thread, 4> threads;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      threads[2 * i] = std::thread(probe_producer, std::ref(pairs[i]),
                                   std::ref(thread_cpu[2 * i]));
      threads[2 * i + 1] = std::thread(probe_consumer, std::ref(pairs[i]),
                                       std::ref(thread_cpu[2 * i + 1]));
    }
    for (std::thread& thread : threads) thread.join();
  }
  ProbeSample sample;
  sample.wall_s = wall_s() - t0;
  double probe_cpu = 0;
  for (const auto& cpu : thread_cpu) probe_cpu += cpu.load();
  sample.thread_cpu_s = probe_cpu / static_cast<double>(thread_cpu.size());
  sample.foreign_cpu_s = std::max(0.0, process_cpu_s() - cpu0 - probe_cpu);
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_xor(pairs[0].hash ^ pairs[1].hash, std::memory_order_relaxed);
  return sample;
}

HostCorrector::HostCorrector(double sensitivity) : sensitivity_(sensitivity) {
  after_interval();
}

std::size_t HostCorrector::after_interval() {
  const ProbeSample sample = run_probe();
  if (sample.foreign_cpu_s > kProbeForeignLimitS) ++disturbed_;
  max_foreign_s_ = std::max(max_foreign_s_, sample.foreign_cpu_s);
  probe_times_.push_back(sample.wall_s);
  probe_cpu_times_.push_back(sample.thread_cpu_s);
  return probe_times_.size() - 2;  // the leading probe opens interval 0
}

double HostCorrector::factor(std::size_t k) const {
  const std::size_t first = k == 0 ? 0 : k - 1;
  const std::size_t last = std::min(k + 3, probe_cpu_times_.size());
  const std::vector<double> window(probe_cpu_times_.begin() + first,
                                   probe_cpu_times_.begin() + last);
  return std::pow(kProbeRefCpuS / median(window), sensitivity_);
}

std::string HostCorrector::summary() const {
  const auto [lo, hi] =
      std::minmax_element(probe_cpu_times_.begin(), probe_cpu_times_.end());
  return griddles::strings::cat(
      "host: probe_cpu_ms median=", median(probe_cpu_times_) * 1e3, " min=",
      *lo * 1e3, " max=", *hi * 1e3, " ref=", kProbeRefCpuS * 1e3,
      " sensitivity=", sensitivity_, " probe_wall_ms median=",
      median(probe_times_) * 1e3, " disturbed_probes=", disturbed_, "/",
      probe_times_.size(), " max_foreign_cpu_ms=", max_foreign_s_ * 1e3);
}

// ---- Spans --------------------------------------------------------------------

std::uint64_t Tracer::begin(std::string name, std::uint64_t trace_id,
                            std::uint64_t parent_id) {
  Record record;
  record.name = std::move(name);
  record.trace_id = trace_id;
  record.span_id = next_id_++;
  record.parent_id = parent_id;
  record.start_s = wall_s();
  records_.push_back(std::move(record));
  return records_.back().span_id;
}

void Tracer::end(std::uint64_t span_id) {
  // Span ids are dense indices + 1 into records_.
  records_[span_id - 1].end_s = wall_s();
}

std::map<std::string, std::pair<double, int>> Tracer::self_times() const {
  // Child intervals per parent, clipped to the parent (span ids are dense
  // indices + 1 into records_).
  std::vector<std::vector<std::pair<double, double>>> children(
      records_.size());
  for (const Record& child : records_) {
    if (child.parent_id == 0) continue;
    const Record& parent = records_[child.parent_id - 1];
    children[child.parent_id - 1].emplace_back(
        std::max(child.start_s, parent.start_s),
        std::min(child.end_s, parent.end_s));
  }
  std::map<std::string, std::pair<double, int>> totals;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    std::sort(children[i].begin(), children[i].end());
    double covered = 0;
    double reach = record.start_s;
    for (const auto& [start, end] : children[i]) {
      const double from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    auto& [self, count] = totals[record.name];
    self += (record.end_s - record.start_s) - covered;
    ++count;
  }
  return totals;
}

std::string Tracer::chrome_json() const {
  const double origin = records_.empty() ? 0 : records_.front().start_s;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    griddles::obs::SpanRecord span;
    span.trace_id = record.trace_id;
    span.span_id = record.span_id;
    span.parent_id = record.parent_id;
    span.name = record.name;
    span.wall_start_s = record.start_s - origin;
    span.wall_end_s = record.end_s - origin;
    if (i > 0) out += ",\n";
    out += griddles::obs::to_chrome_event(span);
  }
  out += "]}\n";
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name,
                       std::uint64_t trace_id, std::uint64_t parent_id)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name), trace_id,
                                               parent_id);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->end(id_);
}

// ---- Results ------------------------------------------------------------------

void RunResult::fail(const std::string& why) {
  correct = false;
  notes.push_back("FAILED: " + why);
}

double metric_value(const RunResult& result, const std::string& name) {
  for (const Metric& metric : result.metrics) {
    if (metric.name == name) return metric.value;
  }
  return -1;
}

std::uint64_t counter_delta(const griddles::obs::MetricsSnapshot& before,
                            const griddles::obs::MetricsSnapshot& after,
                            const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

std::string count_guard(const griddles::obs::MetricsSnapshot& before,
                        const griddles::obs::MetricsSnapshot& after,
                        const griddles::obs::MetricsSnapshot& ref_before,
                        const griddles::obs::MetricsSnapshot& ref_after,
                        std::uint64_t fm_read, std::uint64_t fm_written) {
  using griddles::strings::cat;
  const std::uint64_t read = counter_delta(before, after, "fm.bytes.read");
  const std::uint64_t written =
      counter_delta(before, after, "fm.bytes.written");
  if (read != fm_read || written != fm_written) {
    return cat("fm bytes read/written ", read, "/", written, ", expected ",
               fm_read, "/", fm_written);
  }
  for (const char* name :
       {"fm.open.local", "fm.open.buffer", "fm.open.proxy", "fm.open.staged",
        "fm.open.replicated", "admission.admitted", "remote.copy.bytes"}) {
    const std::uint64_t moved = counter_delta(before, after, name);
    const std::uint64_t expected = counter_delta(ref_before, ref_after, name);
    if (moved != expected) {
      return cat(name, " moved by ", moved, ", reference ", expected);
    }
  }
  for (const auto& [name, value] : after.counters) {
    const bool must_stay =
        name == "stage.reruns" || name == "retry.attempts" ||
        name == "overload.shed" || name.starts_with("fault.injected.");
    if (must_stay && counter_delta(before, after, name) != 0) {
      return cat(name, " moved by ", counter_delta(before, after, name));
    }
  }
  return "";
}

}  // namespace perfbench
