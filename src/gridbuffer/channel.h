// Grid Buffer channel store: the server-side state of the paper's direct
// writer->reader coupling (§3.1, §4).
//
// Data blocks live in a hash table ("data is stored in a hash table
// rather than a sequential buffer") so writes and reads may be out of
// order. As every registered reader consumes a block it is deleted from
// the table; when the channel has a cache file, consumed (or overflowed)
// blocks survive there, which is what lets a reader seek backwards and
// re-read an already-streamed region — transparently, as DARLAM does in
// §5.3. Reads past the written frontier block until the writer produces
// the data or closes the channel.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace griddles::gridbuffer {

/// Channel parameters, fixed at creation (first open).
struct ChannelConfig {
  std::uint32_t block_size = 4096;   // the paper's typical write size
  bool cache_enabled = true;
  std::uint32_t expected_readers = 1;
  /// Hash-table occupancy (bytes) above which blocks spill to the cache
  /// file (cache on; at most Channel::kCachedResidentBytes) or the writer
  /// blocks (cache off).
  std::uint64_t max_buffered_bytes = 16u << 20;
  /// Opt-in writer backpressure (DESIGN.md §14): when nonzero, a write
  /// that would put the frontier more than this many bytes ahead of the
  /// slowest reader blocks until readers catch up (even when the spill
  /// cache would absorb the table overflow). 0 = unbounded. Off by
  /// default: the bound only engages once every expected reader has
  /// registered, and pure write-then-read workloads would deadlock.
  std::uint64_t max_unread_bytes = 0;
};

/// Result of a read: data (possibly shorter than asked), or EOF.
struct ReadResult {
  Buffer data;  // a fresh buffer with headroom for the reply's head
  bool eof = false;
  std::uint64_t frontier = 0;  // bytes written so far (high-water mark)
};

/// One writer-to-readers stream. Thread-safe; reads block.
class Channel {
 public:
  Channel(std::string name, ChannelConfig config, std::string cache_path);
  ~Channel();

  const std::string& name() const noexcept { return name_; }
  const ChannelConfig& config() const noexcept { return config_; }

  /// Registers a reader; the id scopes consumption tracking.
  std::uint64_t add_reader();
  void remove_reader(std::uint64_t reader_id);

  /// A cache-enabled channel keeps at most this many bytes of blocks in
  /// its table; the rest is served from the write-through cache file.
  static constexpr std::uint64_t kCachedResidentBytes = 1u << 20;

  /// Stores a run of blocks: `offset` must be block-aligned; every block
  /// of `data` is whole but the last. Rewriting a block with more data
  /// extends it. Under one lock, with one cache-file write and one
  /// wakeup; the table keeps per-block slices of data.compact(), so a
  /// run received in a request message is shared rather than copied.
  /// Injected peer death and backpressure are checked at every block
  /// boundary. When the table is full and nothing can spill, the write
  /// waits, with the blocks before the wait already stored.
  Status write(std::uint64_t offset, const Buffer& data);

  /// Declares end-of-stream; wakes blocked readers.
  void close_writer();
  bool writer_closed() const;

  /// Marks the writer as dead mid-stream (injected peer death or a real
  /// producer crash): further writes fail with kDataLoss, and readers may
  /// drain everything already written — table and cache — before reads
  /// past the frontier fail with kDataLoss instead of blocking.
  void fail_writer(const std::string& reason);
  bool writer_failed() const;

  /// Reads up to `length` bytes at `offset` for `reader_id`, blocking
  /// until data exists, the writer closes (eof), `deadline_ms` wall
  /// milliseconds elapse (kTimeout; 0 = wait forever), or shutdown().
  Result<ReadResult> read(std::uint64_t reader_id, std::uint64_t offset,
                          std::uint32_t length, std::uint64_t deadline_ms);

  /// Stream status; with `wait_for_eof` blocks until the writer closes.
  Result<ReadResult> stat(bool wait_for_eof, std::uint64_t deadline_ms);

  /// Wakes every blocked operation with kAborted (service shutdown).
  void shutdown();

  /// Bytes currently resident in the hash table (tests/metrics).
  std::uint64_t buffered_bytes() const;
  /// Blocks currently resident in the hash table.
  std::size_t buffered_blocks() const;

 private:
  struct Reader {
    std::uint64_t consumed_upto = 0;  // stream offset fully consumed
  };

  /// Lowest offset any present-or-future reader still needs. Zero until
  /// expected_readers have registered (so an early writer can't outrun
  /// late-joining readers).
  std::uint64_t min_consumed_locked() const REQUIRES(mu_);

  /// Drops fully-consumed blocks from the table; spills to cache first
  /// when enabled.
  void evict_locked() REQUIRES(mu_);
  /// Drops the lowest-offset resident block (it is in the cache file);
  /// false when no block is resident.
  bool spill_oldest_locked() REQUIRES(mu_);
  void drop_locked(std::unordered_map<std::uint64_t, Buffer>::iterator block)
      REQUIRES(mu_);

  /// Appends `data` at `offset` in the cache file.
  Status cache_write_locked(std::uint64_t offset, ByteSpan data)
      REQUIRES(mu_);
  /// Reads up to out.size() bytes at `offset` from the cache file into
  /// `out`; returns how many (short at the file's end).
  Result<std::size_t> cache_read_locked(std::uint64_t offset,
                                        MutableByteSpan out) const
      REQUIRES(mu_);

  const std::string name_;
  const ChannelConfig config_;
  const std::string cache_path_;

  // Held while consulting the armed fault plan on the write path; never
  // acquire Channel::mu_ from inside fault-plan machinery.
  mutable Mutex mu_ ACQUIRED_BEFORE("Plan::mu_");
  CondVar cv_;

  // block start -> data
  std::unordered_map<std::uint64_t, Buffer> blocks_ GUARDED_BY(mu_);
  // every write, ordered
  std::map<std::uint64_t, std::uint32_t> block_sizes_ GUARDED_BY(mu_);
  std::uint64_t table_bytes_ GUARDED_BY(mu_) = 0;
  // No block below this offset is resident: where eviction resumes.
  std::uint64_t resident_from_ GUARDED_BY(mu_) = 0;
  std::uint64_t frontier_ GUARDED_BY(mu_) = 0;
  bool writer_closed_ GUARDED_BY(mu_) = false;
  bool writer_failed_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;

  std::map<std::uint64_t, Reader> readers_ GUARDED_BY(mu_);
  std::uint64_t next_reader_id_ GUARDED_BY(mu_) = 1;
  std::uint32_t readers_seen_ GUARDED_BY(mu_) = 0;

  mutable int cache_fd_ GUARDED_BY(mu_) = -1;  // lazily opened
};

/// The channel registry a Grid Buffer server owns.
class ChannelStore {
 public:
  /// `cache_dir`: directory for per-channel cache files.
  explicit ChannelStore(std::string cache_dir);

  /// Finds or creates a channel. The first creator's config sticks; a
  /// later open with a different block size fails.
  Result<std::shared_ptr<Channel>> open(const std::string& name,
                                        const ChannelConfig& config);

  /// Finds an existing channel.
  Result<std::shared_ptr<Channel>> find(const std::string& name);

  /// Removes a drained channel (writer closed, no readers) to reclaim
  /// memory; kFailedPrecondition if still active.
  Status remove(const std::string& name);

  /// Shuts every channel down (wakes all blocked ops).
  void shutdown_all();

  std::vector<std::string> channel_names() const;

 private:
  const std::string cache_dir_;
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Channel>> channels_ GUARDED_BY(mu_);
};

}  // namespace griddles::gridbuffer
