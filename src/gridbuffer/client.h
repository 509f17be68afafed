// Grid Buffer clients (paper Figure 4's "Grid Buffer Client").
//
// The writer copies application bytes into runs of whole blocks and
// pipelines them, one kWrite per run, on its one connection, so WRITE
// calls return as soon as the bytes are sent — the asynchronous-write
// latency masking of §3.1 (runs and credit: DESIGN.md §16). The reader
// issues blocking reads; its cursor is purely local, so SEEK costs
// nothing until the next read.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

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
    /// Runs on the wire at once: before sending another run the writer
    /// waits for the oldest one's acknowledgement, so a stream is
    /// latency-limited to ~window_blocks * block / RTT — with the
    /// paper's one-block runs, the small-block WAN collapse of §5.3.
    int flusher_threads = kRunsOnWire;
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

 private:
  GridBufferWriter(net::Transport& transport, const net::Endpoint& server,
                   std::string channel, Options options);

  /// Caller bytes copied into one buffer, starting at a block boundary.
  struct Run {
    std::uint64_t offset = 0;  // stream offset of the first byte
    Buffer storage;            // at most run_bytes_, filled in place
    MutableByteSpan out;       // storage's bytes
    std::size_t filled = 0;
  };

  /// The kWrite request carrying `data` at stream offset `offset`.
  Buffer write_request(std::uint64_t offset, Buffer data) const;
  /// Grows open_ to take `more` bytes, up to one run: a run holds no
  /// more than the write() that fills it needs.
  void reserve_open(std::size_t more);
  /// Sends the whole blocks of open_ as one kWrite, once fewer than
  /// flusher_threads runs are on the wire; its partial last block, if
  /// any, moves to a fresh open_.
  Status seal_open();
  /// Takes the acknowledgement of the oldest run on the wire. The first
  /// failure becomes the stream's error.
  Status receive_run();

  std::string channel_;
  Options options_;
  const std::size_t run_bytes_;       // whole blocks per kWrite, in bytes
  const std::uint64_t window_bytes_;  // the credit
  // Open, the runs, the flushed partial block and close.
  net::RpcClient rpc_;

  std::uint64_t cursor_ = 0;        // total bytes accepted
  std::uint64_t acked_bytes_ = 0;   // sent bytes acknowledged
  Run open_;                        // the run being filled
  std::deque<std::size_t> on_wire_;  // bytes of each unacknowledged run
  Status error_;                    // the stream's first failure
  bool closed_ = false;
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
