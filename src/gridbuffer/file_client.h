// GridBufferFileClient: adapts a Grid Buffer channel to the FileClient
// interface, so the File Multiplexer can swap a local file for a direct
// writer->reader stream without the application noticing (paper Fig. 3).
//
// The open flags decide the role: write-only opens become the channel's
// writer, read-only opens become a reader. Read-write opens are rejected
// — a stream has one direction, exactly as in the paper.
#pragma once

#include <memory>

#include "src/gridbuffer/client.h"
#include "src/vfs/file_client.h"

namespace griddles::gridbuffer {

class GridBufferFileClient final : public vfs::FileClient {
 public:
  /// Tuning beyond the channel config itself.
  struct Tuning {
    std::size_t writer_window_blocks = 32;
  };

  static Result<std::unique_ptr<GridBufferFileClient>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel, vfs::OpenFlags flags,
      const ChannelConfig& config, const Tuning& tuning);
  static Result<std::unique_ptr<GridBufferFileClient>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel, vfs::OpenFlags flags,
      const ChannelConfig& config) {
    return open(transport, server, channel, flags, config, Tuning{});
  }

  Result<std::size_t> read(MutableByteSpan out) override;
  Result<std::size_t> write(ByteSpan data) override;
  Result<std::uint64_t> seek(std::int64_t offset, vfs::Whence whence) override;
  std::uint64_t tell() const override;
  Result<std::uint64_t> size() override;
  Status flush() override;
  Status close() override;
  std::string describe() const override;

 private:
  GridBufferFileClient(std::unique_ptr<GridBufferWriter> writer,
                       std::unique_ptr<GridBufferReader> reader,
                       std::string channel)
      : writer_(std::move(writer)), reader_(std::move(reader)),
        channel_(std::move(channel)) {}

  std::unique_ptr<GridBufferWriter> writer_;  // exactly one of these
  std::unique_ptr<GridBufferReader> reader_;  // two is set
  std::string channel_;
};

}  // namespace griddles::gridbuffer
