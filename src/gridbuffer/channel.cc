#include "src/gridbuffer/channel.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/fault/plan.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/vfs/local_client.h"

namespace griddles::gridbuffer {

namespace {
/// Process-wide Grid Buffer metrics (handles cached once).
struct GbMetrics {
  obs::Gauge& bytes_buffered;   // sum of resident block bytes, all channels
  obs::Gauge& blocks_buffered;  // resident block count, all channels
  obs::Histogram& read_wait_s;  // wall time a reader blocked on the writer
  obs::Counter& cache_hits;     // reads served from the spill cache file
  obs::Counter& blocks_evicted;
  obs::Counter& readers_added;
  obs::Counter& backpressure_waits;  // writes stalled on the unread bound

  static GbMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static GbMetrics metrics{
        registry.gauge("gridbuffer.bytes.buffered"),
        registry.gauge("gridbuffer.blocks.buffered"),
        registry.histogram("gridbuffer.read.wait_s",
                           obs::exponential_bounds(1e-4, 10.0, 7)),
        registry.counter("gridbuffer.cache.hits"),
        registry.counter("gridbuffer.blocks.evicted"),
        registry.counter("gridbuffer.readers.added"),
        registry.counter("gridbuffer.backpressure.waits"),
    };
    return metrics;
  }
};

/// Creates a channel's cache file; -1 when the cache is off or the file
/// cannot be made (the channel's writes then fail).
int open_cache(const std::string& path, bool enabled) {
  if (!enabled) return -1;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    GL_LOG(kWarn, "grid buffer cache ", path, ": ",
           strings::errno_message(errno));
  }
  return fd;
}
}  // namespace

Channel::Channel(std::string name, ChannelConfig config,
                 std::string cache_path)
    : name_(std::move(name)), config_(config),
      cache_path_(std::move(cache_path)),
      cache_fd_(open_cache(cache_path_, config_.cache_enabled)) {}

Channel::~Channel() {
  {
    // Blocks no reader consumed leave the process-wide gauges with us.
    MutexLock lock(mu_);
    GbMetrics::get().bytes_buffered.sub(
        static_cast<std::int64_t>(table_bytes_));
    GbMetrics::get().blocks_buffered.sub(
        static_cast<std::int64_t>(buffered_blocks_locked()));
  }
  if (cache_fd_ >= 0) {
    ::close(cache_fd_);
    std::error_code ec;
    std::filesystem::remove(cache_path_, ec);  // cache is scratch state
  }
}

std::uint64_t Channel::add_reader() {
  MutexLock lock(mu_);
  const std::uint64_t id = next_reader_id_++;
  readers_[id] = Reader{};
  ++readers_seen_;
  GbMetrics::get().readers_added.add();
  cv_.notify_all();  // eviction gating may have changed
  return id;
}

void Channel::remove_reader(std::uint64_t reader_id) {
  MutexLock lock(mu_);
  readers_.erase(reader_id);
  evict_locked();
  cv_.notify_all();
}

std::uint64_t Channel::min_consumed_locked() const {
  if (readers_seen_ < config_.expected_readers) return 0;
  if (readers_.empty()) {
    // Every expected reader came and went: nothing will read again.
    return std::numeric_limits<std::uint64_t>::max();
  }
  std::uint64_t lowest = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [id, reader] : readers_) {
    lowest = std::min(lowest, reader.consumed_upto);
  }
  return lowest;
}

std::uint64_t Channel::written_in_block_locked(std::uint64_t start) const {
  auto extent = written_.upper_bound(start);
  if (extent == written_.begin() || (--extent)->second <= start) return 0;
  return std::min<std::uint64_t>(config_.block_size, extent->second - start);
}

bool Channel::unread_stall_locked(std::uint64_t upto) const {
  if (config_.max_unread_bytes == 0) return false;
  const std::uint64_t consumed = min_consumed_locked();
  const std::uint64_t would_be = std::max(frontier_, upto);
  return would_be > consumed && would_be - consumed > config_.max_unread_bytes;
}

void Channel::account_locked(std::int64_t bytes, std::int64_t blocks) {
  table_bytes_ += static_cast<std::uint64_t>(bytes);
  GbMetrics::get().bytes_buffered.add(bytes);
  GbMetrics::get().blocks_buffered.add(blocks);
}

Channel::Resident::iterator Channel::drop_front_locked(
    Resident::iterator entry, std::uint64_t blocks) {
  const std::size_t size = entry->second.size();
  const std::size_t bytes = static_cast<std::size_t>(
      std::min<std::uint64_t>(size, blocks * config_.block_size));
  account_locked(-static_cast<std::int64_t>(bytes),
                 -static_cast<std::int64_t>(blocks));
  GbMetrics::get().blocks_evicted.add(blocks);
  if (bytes == size) return resident_.erase(entry);
  // Re-key the node in place: trimming a run allocates nothing.
  auto node = resident_.extract(entry);
  node.key() += bytes;
  node.mapped() = node.mapped().slice(bytes, size - bytes);
  return resident_.insert(std::move(node)).position;
}

void Channel::evict_locked() {
  const std::uint64_t safe = min_consumed_locked();
  auto entry = resident_.begin();
  while (entry != resident_.end() && entry->first < safe) {
    const std::uint64_t end = entry->first + entry->second.size();
    if (end > safe) {  // only the blocks that end at or below `safe`
      const std::uint64_t blocks = (safe - entry->first) / config_.block_size;
      if (blocks > 0) drop_front_locked(entry, blocks);
      return;
    }
    entry = drop_front_locked(entry, blocks_in(entry->second.size()));
  }
}

void Channel::spill_locked(std::uint64_t incoming, std::uint64_t cap) {
  while (table_bytes_ + incoming > cap && !resident_.empty()) {
    const auto oldest = resident_.begin();
    drop_front_locked(
        oldest, std::min(blocks_in(oldest->second.size()),
                         blocks_in(table_bytes_ + incoming - cap)));
  }
}

void Channel::publish_locked(std::uint64_t offset, const Buffer& run,
                             std::uint64_t from, std::uint64_t to) {
  const std::uint64_t bs = config_.block_size;
  // The first written extent that ends past `from`.
  auto extent = written_.upper_bound(from);
  if (extent != written_.begin() && std::prev(extent)->second > from) {
    --extent;
  }
  for (std::uint64_t at = from; at < to;) {
    if (extent != written_.end() && extent->first <= at) {
      at = (extent++)->second;  // written already: a resent prefix
      continue;
    }
    const std::uint64_t gap_end =
        extent == written_.end() ? to : std::min(to, extent->first);
    const std::uint64_t start = at / bs * bs;
    if (start < at) {
      // The gap begins inside a partial block: its resident copy, if
      // any, ends the entry that holds it, and the longer copy replaces
      // it.
      auto held = resident_.upper_bound(start);
      const std::uint64_t held_end =
          held == resident_.begin()
              ? 0
              : std::prev(held)->first + std::prev(held)->second.size();
      if (held_end > start) {
        --held;
        account_locked(-static_cast<std::int64_t>(held_end - start), -1);
        if (held->first == start) {
          resident_.erase(held);
        } else {
          held->second = held->second.slice(0, start - held->first);
        }
      }
    }
    resident_.emplace(start, run.slice(start - offset, gap_end - start));
    account_locked(static_cast<std::int64_t>(gap_end - start),
                   static_cast<std::int64_t>(blocks_in(gap_end - start)));
    stored_ += gap_end - at;
    at = gap_end;
  }
  // Coalesce [from, to) into the written extents: a sequential stream
  // extends its one extent in place.
  auto merged = written_.upper_bound(from);
  if (merged != written_.begin() && std::prev(merged)->second >= from) {
    --merged;
  } else {
    merged = written_.emplace_hint(merged, from, to);
  }
  merged->second = std::max(merged->second, to);
  for (auto next = std::next(merged);
       next != written_.end() && next->first <= merged->second;
       next = written_.erase(next)) {
    merged->second = std::max(merged->second, next->second);
  }
  frontier_ = std::max(frontier_, to);
}

Status Channel::cache_write(std::uint64_t offset, ByteSpan data) const {
  if (cache_fd_ < 0) {
    return io_error(strings::cat("grid buffer cache ", cache_path_,
                                 " could not be created"));
  }
  return vfs::pwrite_full(cache_fd_, offset, data, cache_path_);
}

Result<std::size_t> Channel::cache_read(std::uint64_t offset,
                                        MutableByteSpan out) const {
  if (cache_fd_ < 0) {
    return out_of_range(
        strings::cat("channel ", name_, ": block evicted and no cache file"));
  }
  return vfs::pread_full(cache_fd_, offset, out, cache_path_);
}

Status Channel::write(std::uint64_t offset, const Buffer& data) {
  const std::uint64_t bs = config_.block_size;
  if (offset % bs != 0) {
    return invalid_argument("grid buffer write not block-aligned");
  }
  // The pin rule (DESIGN.md §15) applies to the run as a whole; the
  // table keeps slices of it.
  const Buffer run = data.compact();
  const std::uint64_t end = offset + run.size();
  {
    MutexLock lock(mu_);
    if (shutdown_) return aborted_error("grid buffer shutting down");
    if (writer_failed_) {
      return data_loss(
          strings::cat("channel ", name_, ": writer died mid-stream"));
    }
    if (writer_closed_) {
      return failed_precondition(
          strings::cat("channel ", name_, ": writer already closed"));
    }
    // Every block of the run but the last is whole, so only the last
    // can shrink a block.
    const std::uint64_t last = run.empty() ? end : (end - 1) / bs * bs;
    if (!run.empty() && end - last < written_in_block_locked(last)) {
      return invalid_argument(
          "grid buffer block rewrite must extend the block");
    }
  }
  if (run.empty()) return Status::ok();
  // Into the file before any block is published, so every block a
  // reader or a spill can see is already there.
  if (config_.cache_enabled) GL_RETURN_IF_ERROR(cache_write(offset, run));
  // Any blocked stall below is additionally bounded by the ambient
  // end-to-end budget (src/common/deadline.h): an expired writer gives
  // up with kDeadlineExceeded instead of buffering into a stall.
  const std::optional<WallClock::time_point> budget = current_deadline();
  const std::uint64_t table_cap =
      config_.cache_enabled
          ? std::min(config_.max_buffered_bytes, kCachedResidentBytes)
          : config_.max_buffered_bytes;

  // Lazily opened on the first backpressure stall (see read()).
  std::optional<obs::Span> wait_span;
  MutexLock lock(mu_);
  // When nothing can stop the run part way, it is published in one step.
  // Spilling for it first is what block-by-block publishing does when
  // every resident block lies below the run.
  const auto top = resident_.rbegin();
  const bool above_table =
      top == resident_.rend() || top->first + top->second.size() <= offset;
  const bool whole =
      fault::armed() == nullptr && !unread_stall_locked(end) &&
      (table_bytes_ + run.size() <= table_cap ||
       (config_.cache_enabled && run.size() <= table_cap && above_table));
  const std::uint64_t step = whole ? run.size() : bs;
  for (std::uint64_t at = offset; at < end; at += step) {
    const std::uint64_t step_end = std::min(end, at + step);
    // Injected peer death: the producer "dies" once the stream frontier
    // would pass the rule's `after=` mark. The block is NOT stored — the
    // reader can drain only what a real dead writer had already flushed.
    if (fault::Plan* plan = fault::armed(); plan != nullptr) {
      const fault::Decision verdict = plan->consult(
          fault::Site::kPeer, name_, std::max(frontier_, step_end));
      if (verdict.action == fault::Decision::Action::kKill) {
        writer_failed_ = true;
        const std::uint64_t died_at = frontier_;
        lock.unlock();
        cv_.notify_all();
        return data_loss(strings::cat("injected fault: channel ", name_,
                                      " writer died at frontier ", died_at));
      }
    }

    while (true) {
      if (shutdown_) return aborted_error("grid buffer shutting down");
      if (writer_failed_) {
        return data_loss(
            strings::cat("channel ", name_, ": writer died mid-stream"));
      }
      if (writer_closed_) {
        return failed_precondition("writer closed while blocked");
      }
      // Opt-in backpressure on *unread* data: even when the spill cache
      // would absorb table overflow, the frontier may not outrun the
      // slowest reader by more than max_unread_bytes.
      bool stall = unread_stall_locked(step_end);
      // Table at capacity: spill the oldest blocks to the cache (every
      // resident block is already there), or, without a cache, wait for
      // readers to consume.
      const std::uint64_t size = step_end - at;
      if (!stall && config_.cache_enabled) {
        spill_locked(size, table_cap);
      } else if (!stall && table_bytes_ + size > table_cap) {
        evict_locked();
        stall = table_bytes_ + size > table_cap && !resident_.empty();
      }
      if (!stall) break;
      if (!wait_span) {
        wait_span.emplace(obs::SpanKind::kBufferWait,
                          strings::cat("gbuf.write_wait:", name_));
        GbMetrics::get().backpressure_waits.add();
      }
      cv_.notify_all();  // readers may consume the blocks stored so far
      if (budget) {
        // lint: blocking-ok (backpressure monitor wait: releases mu_; deadline-bounded)
        if (cv_.wait_until(mu_, *budget) == std::cv_status::timeout) {
          return deadline_exceeded(strings::cat(
              "channel ", name_, ": budget exhausted under backpressure"));
        }
      } else {
        // lint: blocking-ok (backpressure monitor wait: releases mu_)
        cv_.wait(mu_);
      }
    }
    publish_locked(offset, run, at, step_end);
  }

  lock.unlock();
  cv_.notify_all();
  return Status::ok();
}

StreamExtent Channel::close_writer() {
  StreamExtent extent;
  {
    MutexLock lock(mu_);
    writer_closed_ = true;
    extent = {frontier_, stored_};
  }
  cv_.notify_all();
  return extent;
}

Status Channel::close_writer_at(const StreamExtent& extent,
                                std::uint64_t idle_ms) {
  MutexLock lock(mu_);
  StreamExtent held{frontier_, stored_};
  WallClock::time_point idle_until =
      WallClock::now() + std::chrono::milliseconds(idle_ms);
  while (held != extent) {
    if (shutdown_) return aborted_error("grid buffer shutting down");
    if (writer_closed_ || writer_failed_ || held.frontier > extent.frontier ||
        held.stored > extent.stored) {
      return data_loss(strings::cat("channel ", name_, ": holds ",
                                    held.stored, " bytes to ", held.frontier,
                                    ", not ", extent.stored, " to ",
                                    extent.frontier));
    }
    // lint: blocking-ok (monitor wait, deadline-bounded: releases mu_)
    if (cv_.wait_until(mu_, idle_until) == std::cv_status::timeout) {
      return data_loss(strings::cat(
          "channel ", name_, ": holds ", held.stored, " of ", extent.stored,
          " bytes and nothing landed for ", idle_ms, " ms"));
    }
    const StreamExtent now{frontier_, stored_};
    if (now != held) {
      held = now;
      idle_until = WallClock::now() + std::chrono::milliseconds(idle_ms);
    }
  }
  writer_closed_ = true;
  lock.unlock();
  cv_.notify_all();
  return Status::ok();
}

bool Channel::writer_closed() const {
  MutexLock lock(mu_);
  return writer_closed_;
}

void Channel::fail_writer(const std::string& reason) {
  {
    MutexLock lock(mu_);
    writer_failed_ = true;
    GL_LOG(kDebug, "channel ", name_, ": writer failed: ", reason);
  }
  cv_.notify_all();
}

bool Channel::writer_failed() const {
  MutexLock lock(mu_);
  return writer_failed_;
}

Result<ReadResult> Channel::read(std::uint64_t reader_id,
                                 std::uint64_t offset, std::uint32_t length,
                                 std::uint64_t deadline_ms) {
  const auto deadline =
      WallClock::now() + std::chrono::milliseconds(
                             deadline_ms == 0 ? 0 : deadline_ms);
  // Lazily opened on the first blocked wait, so a read served straight
  // from the table emits no span; ends when the read returns, covering
  // the whole stall. Span recording never blocks, so creating it under
  // mu_ is safe.
  std::optional<obs::Span> wait_span;
  MutexLock lock(mu_);
  if (readers_.find(reader_id) == readers_.end()) {
    return not_found(strings::cat("channel ", name_, ": unknown reader"));
  }

  while (true) {
    if (shutdown_) return aborted_error("grid buffer shutting down");
    if (length == 0) {
      return ReadResult{{}, writer_closed_ && offset >= frontier_, frontier_};
    }

    auto written = written_.upper_bound(offset);
    if (written != written_.begin() && std::prev(written)->second > offset) {
      // Serve as much contiguous data as is already available, crossing
      // block and run boundaries, up to `length` — one RPC can drain a
      // whole written extent instead of one block per round trip. Copied
      // once, straight into the buffer the reply is framed in: resident
      // runs now, the spilled gaps between them after mu_ is released,
      // one read each (a published block is in the file, and an
      // extending rewrite resends the same bytes, so the read sees no
      // torn data).
      struct Extent {
        std::size_t at;  // into out; the stream offset is offset + at
        std::size_t length;
      };
      std::vector<Extent> spilled;
      MutableByteSpan out;
      Buffer data = Buffer::uninitialized(
          static_cast<std::size_t>(std::min<std::uint64_t>(
              length, std::prev(written)->second - offset)),
          out);
      const std::uint64_t end = offset + out.size();
      // The first resident run that ends past `offset`.
      auto run = resident_.upper_bound(offset);
      if (run != resident_.begin() &&
          std::prev(run)->first + std::prev(run)->second.size() > offset) {
        --run;
      }
      std::uint64_t position = offset;
      while (position < end) {
        const std::size_t at = static_cast<std::size_t>(position - offset);
        if (run != resident_.end() && run->first <= position) {
          const std::uint64_t take =
              std::min(end, run->first + run->second.size()) - position;
          std::memcpy(out.data() + at,
                      run->second.data() + (position - run->first),
                      static_cast<std::size_t>(take));
          position += take;
          ++run;
          continue;
        }
        const std::uint64_t gap_end =
            run == resident_.end() ? end : std::min(end, run->first);
        if (!config_.cache_enabled) {
          if (position != offset) break;  // serve what we have
          return out_of_range(strings::cat(
              "channel ", name_,
              ": block consumed and re-read needs a cache file (offset ",
              position, ")"));
        }
        spilled.push_back({at, static_cast<std::size_t>(gap_end - position)});
        position = gap_end;
      }
      std::size_t filled = static_cast<std::size_t>(position - offset);
      if (!spilled.empty()) {
        lock.unlock();
        for (const Extent& extent : spilled) {
          GL_ASSIGN_OR_RETURN(
              const std::size_t cached,
              cache_read(offset + extent.at,
                         out.subspan(extent.at, extent.length)));
          GbMetrics::get().cache_hits.add();
          if (cached < extent.length) {  // short cache read: stop here
            filled = extent.at + cached;
            break;
          }
        }
        lock.lock();
      }
      ReadResult result{data.slice(0, filled), false, frontier_};
      // Re-find: remove_reader may have erased this reader while the loop
      // waited on cv_ or the cache was read (operator[] here would
      // silently resurrect it and stall eviction forever).
      const auto reader_it = readers_.find(reader_id);
      if (reader_it == readers_.end()) {
        return not_found(
            strings::cat("channel ", name_, ": reader removed mid-read"));
      }
      reader_it->second.consumed_upto = std::max(
          reader_it->second.consumed_upto, offset + result.data.size());
      evict_locked();
      lock.unlock();
      cv_.notify_all();  // space may have been freed for the writer
      return result;
    }

    // Drained everything a dead writer produced: surface the loss rather
    // than blocking for data that will never arrive. (Covered offsets
    // above still serve normally — that is the cache-drain recovery.)
    // Checked before the EOF branch: a failed writer's teardown may still
    // send a clean close, which must not turn truncation into EOF.
    if (writer_failed_) {
      return data_loss(strings::cat("channel ", name_,
                                    ": writer died; stream ends at ",
                                    frontier_, ", read at ", offset));
    }

    if (offset >= frontier_) {
      if (writer_closed_) {
        return ReadResult{{}, true, frontier_};
      }
    } else if (writer_closed_) {
      // A hole below the frontier that can never be filled: sparse
      // semantics, serve zeros up to the next written extent.
      const auto next = written_.upper_bound(offset);
      const std::uint64_t zeros_end =
          std::min(frontier_, next == written_.end()
                                  ? frontier_
                                  : next->first);
      const std::uint32_t take = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(length, zeros_end - offset));
      if (take > 0) {
        ReadResult result;
        result.frontier = frontier_;
        result.data.assign(take, std::byte{0});
        const auto reader_it = readers_.find(reader_id);
        if (reader_it == readers_.end()) {
          return not_found(
              strings::cat("channel ", name_, ": reader removed mid-read"));
        }
        reader_it->second.consumed_upto =
            std::max(reader_it->second.consumed_upto, offset + take);
        evict_locked();
        return result;
      }
      // zeros_end == offset: offset sits exactly at a written block start
      // that was already handled above; fall through to wait (should not
      // happen once the writer is closed).
      return internal_error("grid buffer read stuck at written block");
    }

    // Wait for the writer (or for an out-of-order block to land).
    if (!wait_span) {
      wait_span.emplace(obs::SpanKind::kBufferWait,
                        strings::cat("gbuf.read_wait:", name_));
    }
    const auto wait_start = WallClock::now();
    if (deadline_ms == 0) {
      // lint: blocking-ok (monitor wait: releases mu_ until writer progress)
      cv_.wait(mu_);
      // lint: blocking-ok (monitor wait, deadline-bounded: releases mu_)
    } else if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
      GbMetrics::get().read_wait_s.observe(
          to_seconds_d(WallClock::now() - wait_start));
      return timeout_error(strings::cat("channel ", name_,
                                        ": read timed out at offset ",
                                        offset));
    }
    GbMetrics::get().read_wait_s.observe(
        to_seconds_d(WallClock::now() - wait_start));
  }
}

Result<ReadResult> Channel::stat(bool wait_for_eof,
                                 std::uint64_t deadline_ms) {
  const auto deadline =
      WallClock::now() + std::chrono::milliseconds(
                             deadline_ms == 0 ? 0 : deadline_ms);
  MutexLock lock(mu_);
  while (wait_for_eof && !writer_closed_ && !writer_failed_ && !shutdown_) {
    if (deadline_ms == 0) {
      // lint: blocking-ok (monitor wait: releases mu_ until eof or shutdown)
      cv_.wait(mu_);
      // lint: blocking-ok (monitor wait, deadline-bounded: releases mu_)
    } else if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
      return timeout_error(
          strings::cat("channel ", name_, ": stat timed out awaiting eof"));
    }
  }
  if (shutdown_) return aborted_error("grid buffer shutting down");
  if (writer_failed_) {
    return data_loss(
        strings::cat("channel ", name_, ": writer died mid-stream"));
  }
  return ReadResult{{}, writer_closed_, frontier_};
}

void Channel::shutdown() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

std::uint64_t Channel::buffered_bytes() const {
  MutexLock lock(mu_);
  return table_bytes_;
}

std::size_t Channel::buffered_blocks() const {
  MutexLock lock(mu_);
  return buffered_blocks_locked();
}

std::size_t Channel::buffered_blocks_locked() const {
  std::size_t blocks = 0;
  for (const auto& [start, run] : resident_) blocks += blocks_in(run.size());
  return blocks;
}

ChannelStore::ChannelStore(std::string cache_dir)
    : cache_dir_(std::move(cache_dir)) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir_, ec);
}

namespace {
std::string sanitize_for_filename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '/' || c == '\\' || c == ':') c = '_';
  }
  return out;
}
}  // namespace

Result<std::shared_ptr<Channel>> ChannelStore::open(
    const std::string& name, const ChannelConfig& config) {
  MutexLock lock(mu_);
  const auto it = channels_.find(name);
  if (it != channels_.end()) {
    const ChannelConfig& existing = it->second->config();
    if (existing.block_size != config.block_size ||
        existing.cache_enabled != config.cache_enabled) {
      return failed_precondition(
          strings::cat("channel ", name,
                       " already exists with different parameters"));
    }
    return it->second;
  }
  const std::string cache_path =
      (std::filesystem::path(cache_dir_) /
       (sanitize_for_filename(name) + ".cache"))
          .string();
  auto channel = std::make_shared<Channel>(name, config, cache_path);
  channels_[name] = channel;
  GL_LOG(kDebug, "grid buffer channel created: ", name);
  return channel;
}

Result<std::shared_ptr<Channel>> ChannelStore::find(const std::string& name) {
  MutexLock lock(mu_);
  const auto it = channels_.find(name);
  if (it == channels_.end()) {
    return not_found(strings::cat("no grid buffer channel ", name));
  }
  return it->second;
}

Status ChannelStore::remove(const std::string& name) {
  // Never call into a channel (Channel::mu_) with the store lock held:
  // lockgraph would record ChannelStore::mu_ -> Channel::mu_, and any
  // future channel-side path back into the store would deadlock. Check
  // the writer outside the lock — writer_closed is monotonic once true —
  // and re-look-up before erasing in case of a concurrent remove/create.
  std::shared_ptr<Channel> channel;
  {
    MutexLock lock(mu_);
    const auto it = channels_.find(name);
    if (it == channels_.end()) {
      return not_found(strings::cat("no grid buffer channel ", name));
    }
    channel = it->second;
  }
  if (!channel->writer_closed()) {
    return failed_precondition(
        strings::cat("channel ", name, " still has an active writer"));
  }
  MutexLock lock(mu_);
  const auto it = channels_.find(name);
  if (it != channels_.end() && it->second == channel) {
    channels_.erase(it);
  }
  return Status::ok();
}

void ChannelStore::shutdown_all() {
  // Snapshot under the store lock, shut down outside it: Channel::
  // shutdown() takes Channel::mu_ and wakes blocked readers/writers,
  // which must not happen under ChannelStore::mu_ (see remove()).
  std::vector<std::shared_ptr<Channel>> snapshot;
  {
    MutexLock lock(mu_);
    snapshot.reserve(channels_.size());
    for (auto& [name, channel] : channels_) snapshot.push_back(channel);
  }
  for (auto& channel : snapshot) channel->shutdown();
}

std::vector<std::string> ChannelStore::channel_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(channels_.size());
  for (const auto& [name, channel] : channels_) names.push_back(name);
  return names;
}

}  // namespace griddles::gridbuffer
