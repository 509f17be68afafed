// Grid Buffer clients (paper Figure 4's "Grid Buffer Client").
//
// The writer copies application bytes into runs of whole blocks that
// background sender threads ship, one kWrite per run, so WRITE calls
// return as soon as the bytes are staged — the asynchronous-write latency
// masking of §3.1 (runs and credit: DESIGN.md §16). The reader issues
// blocking reads; its cursor is purely local, so SEEK costs nothing until
// the next read.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>

#include "src/common/thread_annotations.h"
#include "src/gridbuffer/server.h"
#include "src/net/rpc.h"

namespace griddles::gridbuffer {

class GridBufferWriter {
 public:
  struct Options {
    ChannelConfig channel;
    /// The writer's credit: write() blocks once this many blocks' bytes
    /// are accepted but not yet acknowledged by the server. Whole blocks
    /// go out in runs of up to window_blocks / flusher_threads blocks,
    /// one kWrite each; a run is cut when it is full and when write()
    /// returns. window_blocks == flusher_threads is the paper's stream:
    /// one block per kWrite.
    std::size_t window_blocks = 32;
    /// Concurrent sender connections. Each sender RPCs synchronously,
    /// so at most this many runs are on the wire at once and a stream
    /// is latency-limited to ~window_blocks * block / RTT — with the
    /// paper's one-block runs, the small-block WAN collapse of §5.3.
    /// Out-of-order arrival is what the server's hash table exists for
    /// (§4).
    int flusher_threads = 4;
    /// Wire format — kSoap reproduces the paper's Web-Services transport
    /// (must match the server's).
    net::WireFormat wire = net::WireFormat::kBinary;
  };

  /// Opens (creating if needed) `channel` for writing.
  static Result<std::unique_ptr<GridBufferWriter>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel, Options options);
  static Result<std::unique_ptr<GridBufferWriter>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel) {
    return open(transport, server, channel, Options{});
  }

  ~GridBufferWriter();

  GridBufferWriter(const GridBufferWriter&) = delete;
  GridBufferWriter& operator=(const GridBufferWriter&) = delete;

  /// Appends bytes to the stream (buffered into block_size blocks).
  Status write(ByteSpan data);

  /// Waits until every whole block is acknowledged, then sends the
  /// partial last block, if any. The stream may extend that block
  /// later: the server accepts extending rewrites at the same offset.
  Status flush();

  /// Flushes and publishes end-of-stream. Idempotent.
  Status close();

  std::uint64_t bytes_written() const noexcept { return cursor_; }
  const std::string& channel() const noexcept { return channel_; }

 private:
  GridBufferWriter(net::Transport& transport, net::Endpoint server,
                   std::string channel, Options options);

  /// Caller bytes copied into one buffer, starting at a block boundary.
  struct Run {
    std::uint64_t offset = 0;  // stream offset of the first byte
    Buffer storage;            // at most run_bytes_, filled in place
    MutableByteSpan out;       // storage's bytes
    std::size_t filled = 0;
  };
  /// Whole blocks sealed for one kWrite.
  struct Sealed {
    std::uint64_t offset = 0;
    Buffer data;  // the only reference to its storage
  };

  /// Sends `data` at `offset` as one kWrite on `rpc`.
  Status send_run(net::RpcClient& rpc, std::uint64_t offset, Buffer data);
  /// Grows open_ to take `more` bytes, up to one run: a run holds no
  /// more than the write() that fills it needs.
  void reserve_open(std::size_t more);
  /// Hands the whole blocks of open_ to the senders; its partial last
  /// block, if any, moves to a fresh open_.
  void seal_open();
  void sender_main();
  Status pipeline_error() const;

  net::Transport& transport_;
  net::Endpoint server_;
  std::string channel_;
  Options options_;
  const std::size_t run_bytes_;        // whole blocks per kWrite, in bytes
  const std::uint64_t window_bytes_;   // the credit

  net::RpcClient control_;  // open/close + the flushed partial block

  // Writer thread only.
  std::uint64_t cursor_ = 0;  // total bytes accepted
  Run open_;                  // the run being filled
  bool closed_ = false;

  mutable Mutex mu_;
  CondVar sealed_cv_;  // senders wait for a sealed run or stop
  CondVar acked_cv_;   // write()/flush() wait for acknowledgements
  std::deque<Sealed> sealed_ GUARDED_BY(mu_);
  std::uint64_t acked_bytes_ GUARDED_BY(mu_) = 0;  // sealed bytes acked
  bool stopping_ GUARDED_BY(mu_) = false;
  Status sender_status_ GUARDED_BY(mu_);
  std::vector<std::thread> senders_;
};

class GridBufferReader {
 public:
  struct Options {
    ChannelConfig channel;
    /// Per-read server-side blocking budget (wall ms; 0 = forever).
    std::uint64_t read_deadline_ms = 120000;
    /// Wire format (must match the server's).
    net::WireFormat wire = net::WireFormat::kBinary;
  };

  /// Registers as a reader of `channel` (creating it if the writer has
  /// not opened it yet).
  static Result<std::unique_ptr<GridBufferReader>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel, Options options);
  static Result<std::unique_ptr<GridBufferReader>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel) {
    return open(transport, server, channel, Options{});
  }

  ~GridBufferReader();

  GridBufferReader(const GridBufferReader&) = delete;
  GridBufferReader& operator=(const GridBufferReader&) = delete;

  /// Reads at the cursor; blocks until data or EOF. 0 = end of stream.
  Result<std::size_t> read(MutableByteSpan out);

  /// Moves the cursor. kEnd blocks until the writer closes (the final
  /// size is unknowable earlier).
  Result<std::uint64_t> seek(std::int64_t offset, std::uint8_t whence);

  std::uint64_t tell() const noexcept { return cursor_; }

  /// Final stream size; blocks until the writer closes.
  Result<std::uint64_t> size();

  Status close();

  const std::string& channel() const noexcept { return channel_; }

 private:
  GridBufferReader(net::Transport& transport, net::Endpoint server,
                   std::string channel, Options options);

  net::RpcClient rpc_;
  std::string channel_;
  Options options_;
  std::uint64_t reader_id_ = 0;
  std::uint64_t cursor_ = 0;
  bool closed_ = false;
};

}  // namespace griddles::gridbuffer
