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
}  // namespace

Channel::Channel(std::string name, ChannelConfig config,
                 std::string cache_path)
    : name_(std::move(name)), config_(config),
      cache_path_(std::move(cache_path)) {}

Channel::~Channel() {
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

void Channel::drop_locked(
    std::unordered_map<std::uint64_t, Buffer>::iterator block) {
  table_bytes_ -= block->second.size();
  GbMetrics::get().bytes_buffered.sub(
      static_cast<std::int64_t>(block->second.size()));
  GbMetrics::get().blocks_buffered.sub(1);
  GbMetrics::get().blocks_evicted.add();
  blocks_.erase(block);
}

void Channel::evict_locked() {
  const std::uint64_t safe = min_consumed_locked();
  auto it = block_sizes_.lower_bound(resident_from_);
  while (it != block_sizes_.end() &&
         it->first + it->second <= safe) {
    const auto block = blocks_.find(it->first);
    if (block != blocks_.end()) drop_locked(block);
    resident_from_ = it->first + it->second;
    ++it;
  }
}

bool Channel::spill_oldest_locked() {
  for (auto it = block_sizes_.lower_bound(resident_from_);
       it != block_sizes_.end(); ++it) {
    const auto block = blocks_.find(it->first);
    if (block == blocks_.end()) continue;
    drop_locked(block);
    resident_from_ = it->first + it->second;
    return true;
  }
  return false;
}

Status Channel::cache_write_locked(std::uint64_t offset, ByteSpan data) {
  if (cache_fd_ < 0) {
    cache_fd_ = ::open(cache_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC,
                       0644);
    if (cache_fd_ < 0) {
      return io_error(strings::cat("grid buffer cache ", cache_path_, ": ",
                                   strings::errno_message(errno)));
    }
  }
  std::size_t put = 0;
  while (put < data.size()) {
    const ssize_t n = ::pwrite(cache_fd_, data.data() + put,
                               data.size() - put,
                               static_cast<off_t>(offset + put));
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error(strings::cat("grid buffer cache write: ",
                                   strings::errno_message(errno)));
    }
    put += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Result<std::size_t> Channel::cache_read_locked(std::uint64_t offset,
                                               MutableByteSpan out) const {
  if (cache_fd_ < 0) {
    return out_of_range(
        strings::cat("channel ", name_, ": block evicted and no cache file"));
  }
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(cache_fd_, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error(strings::cat("grid buffer cache read: ",
                                   strings::errno_message(errno)));
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

Status Channel::write(std::uint64_t offset, const Buffer& data) {
  // Lazily opened on the first backpressure stall (see read()).
  std::optional<obs::Span> wait_span;
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
  const std::uint64_t bs = config_.block_size;
  if (offset % bs != 0) {
    return invalid_argument("grid buffer write not block-aligned");
  }
  const std::uint64_t end = offset + data.size();
  for (auto it = block_sizes_.lower_bound(offset);
       it != block_sizes_.end() && it->first < end; ++it) {
    if (std::min(bs, end - it->first) < it->second) {
      return invalid_argument(
          "grid buffer block rewrite must extend the block");
    }
  }
  // The pin rule (DESIGN.md §15) applies to the run as a whole; its
  // blocks are slices of it.
  const Buffer run = data.compact();
  if (config_.cache_enabled && !run.empty()) {
    GL_RETURN_IF_ERROR(cache_write_locked(offset, run));
  }
  // Any blocked stall below is additionally bounded by the ambient
  // end-to-end budget (src/common/deadline.h): an expired writer gives
  // up with kDeadlineExceeded instead of buffering into a stall.
  const std::optional<WallClock::time_point> budget = current_deadline();
  const std::uint64_t table_cap =
      config_.cache_enabled
          ? std::min(config_.max_buffered_bytes, kCachedResidentBytes)
          : config_.max_buffered_bytes;

  for (std::uint64_t at = offset; at < end; at += bs) {
    const Buffer block = run.slice(at - offset, bs);
    // Injected peer death: the producer "dies" once the stream frontier
    // would pass the rule's `after=` mark. The block is NOT stored — the
    // reader can drain only what a real dead writer had already flushed.
    if (fault::Plan* plan = fault::armed(); plan != nullptr) {
      const fault::Decision verdict = plan->consult(
          fault::Site::kPeer, name_, std::max(frontier_, at + block.size()));
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
      bool stall = false;
      if (config_.max_unread_bytes > 0) {
        const std::uint64_t consumed = min_consumed_locked();
        const std::uint64_t would_be = std::max(frontier_, at + block.size());
        stall = would_be > consumed &&
                would_be - consumed > config_.max_unread_bytes;
      }
      // Table at capacity: spill the oldest block to the cache (every
      // resident block is already there), or, without a cache, wait for
      // readers to consume.
      if (!stall && config_.cache_enabled) {
        while (table_bytes_ + block.size() > table_cap &&
               spill_oldest_locked()) {
        }
      } else if (!stall && table_bytes_ + block.size() > table_cap) {
        evict_locked();
        stall = table_bytes_ + block.size() > table_cap && !blocks_.empty();
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

    auto [size_it, added] = block_sizes_.try_emplace(at, 0);
    if (!added) {
      const auto existing = blocks_.find(at);
      if (existing != blocks_.end()) {
        table_bytes_ -= existing->second.size();
        GbMetrics::get().bytes_buffered.sub(
            static_cast<std::int64_t>(existing->second.size()));
        GbMetrics::get().blocks_buffered.sub(1);
      }
    }
    size_it->second = static_cast<std::uint32_t>(block.size());
    blocks_[at] = block;
    table_bytes_ += block.size();
    GbMetrics::get().bytes_buffered.add(
        static_cast<std::int64_t>(block.size()));
    GbMetrics::get().blocks_buffered.add(1);
    frontier_ = std::max(frontier_, at + block.size());
    resident_from_ = std::min(resident_from_, at);
  }

  lock.unlock();
  cv_.notify_all();
  return Status::ok();
}

void Channel::close_writer() {
  {
    MutexLock lock(mu_);
    writer_closed_ = true;
  }
  cv_.notify_all();
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

    const std::uint64_t bs = config_.block_size;
    const std::uint64_t start = offset / bs * bs;
    const auto size_it = block_sizes_.find(start);
    const bool covered = size_it != block_sizes_.end() &&
                         offset - start < size_it->second;
    if (covered) {
      // Serve as much contiguous data as is already available, crossing
      // block boundaries, up to `length` — one RPC can drain a whole
      // run of blocks instead of one block per round trip.
      // Copied once, straight into the buffer the reply is framed in.
      MutableByteSpan out;
      Buffer data = Buffer::uninitialized(
          static_cast<std::size_t>(
              std::min<std::uint64_t>(length, frontier_ - offset)),
          out);
      std::size_t filled = 0;
      std::uint64_t position = offset;
      while (filled < out.size()) {
        const std::uint64_t block_start = position / bs * bs;
        const auto run_it = block_sizes_.find(block_start);
        if (run_it == block_sizes_.end() ||
            position - block_start >= run_it->second) {
          break;  // next block not (fully enough) written yet
        }
        const std::uint64_t in_block = position - block_start;
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size() - filled,
                                    run_it->second - in_block));
        const auto block = blocks_.find(block_start);
        if (block != blocks_.end()) {
          std::memcpy(out.data() + filled, block->second.data() + in_block,
                      take);
        } else if (config_.cache_enabled) {
          GL_ASSIGN_OR_RETURN(
              const std::size_t cached,
              cache_read_locked(position, out.subspan(filled, take)));
          GbMetrics::get().cache_hits.add();
          if (cached < take) {  // short cache read: stop here
            filled += cached;
            break;
          }
        } else {
          if (filled != 0) break;  // serve what we have
          return out_of_range(strings::cat(
              "channel ", name_,
              ": block consumed and re-read needs a cache file (offset ",
              position, ")"));
        }
        filled += take;
        position += take;
      }
      ReadResult result{data.slice(0, filled), false, frontier_};
      // Re-find: remove_reader may have erased this reader while the loop
      // waited on cv_ (operator[] here would silently resurrect it and
      // stall eviction forever).
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
      const auto next = block_sizes_.upper_bound(offset);
      const std::uint64_t zeros_end =
          std::min(frontier_, next == block_sizes_.end()
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
  return blocks_.size();
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
