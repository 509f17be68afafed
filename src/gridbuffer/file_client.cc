#include "src/gridbuffer/file_client.h"

#include "src/common/strings.h"

namespace griddles::gridbuffer {

Result<std::unique_ptr<GridBufferFileClient>> GridBufferFileClient::open(
    net::Transport& transport, const net::Endpoint& server,
    const std::string& channel, vfs::OpenFlags flags,
    const ChannelConfig& config, const Tuning& tuning) {
  if (flags.read && flags.write) {
    return unimplemented(
        "grid buffer channels are unidirectional; open read xor write");
  }
  if (flags.write) {
    GridBufferWriter::Options options;
    options.channel = config;
    options.window_blocks = tuning.writer_window_blocks;
    GL_ASSIGN_OR_RETURN(auto writer, GridBufferWriter::open(
                                         transport, server, channel,
                                         options));
    return std::unique_ptr<GridBufferFileClient>(new GridBufferFileClient(
        std::move(writer), nullptr, channel));
  }
  GridBufferReader::Options options;
  options.channel = config;
  GL_ASSIGN_OR_RETURN(auto reader,
                      GridBufferReader::open(transport, server, channel,
                                             options));
  return std::unique_ptr<GridBufferFileClient>(new GridBufferFileClient(
      nullptr, std::move(reader), channel));
}

Result<std::size_t> GridBufferFileClient::read(MutableByteSpan out) {
  if (!reader_) return permission_denied("channel open for writing only");
  return reader_->read(out);
}

Result<std::size_t> GridBufferFileClient::write(ByteSpan data) {
  if (!writer_) return permission_denied("channel open for reading only");
  GL_RETURN_IF_ERROR(writer_->write(data));
  return data.size();
}

Result<std::uint64_t> GridBufferFileClient::seek(std::int64_t offset,
                                                 vfs::Whence whence) {
  if (reader_) {
    return reader_->seek(offset, static_cast<std::uint8_t>(whence));
  }
  // Writers are sequential streams; only a no-op seek is allowed.
  const std::uint64_t pos = writer_->bytes_written();
  if ((whence == vfs::Whence::kCurrent && offset == 0) ||
      (whence == vfs::Whence::kSet &&
       offset == static_cast<std::int64_t>(pos))) {
    return pos;
  }
  return unimplemented("grid buffer writers are sequential; cannot seek");
}

std::uint64_t GridBufferFileClient::tell() const {
  return reader_ ? reader_->tell() : writer_->bytes_written();
}

Result<std::uint64_t> GridBufferFileClient::size() {
  if (reader_) return reader_->size();
  return writer_->bytes_written();
}

Status GridBufferFileClient::flush() {
  return writer_ ? writer_->flush() : Status::ok();
}

Status GridBufferFileClient::close() {
  return writer_ ? writer_->close() : reader_->close();
}

std::string GridBufferFileClient::describe() const {
  return strings::cat("gridbuffer:", channel_,
                      writer_ ? " (writer)" : " (reader)");
}

}  // namespace griddles::gridbuffer
