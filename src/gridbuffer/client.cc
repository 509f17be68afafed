#include "src/gridbuffer/client.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/xdr/codec.h"

namespace griddles::gridbuffer {

namespace {
Buffer encode_open(const std::string& channel, const ChannelConfig& config) {
  xdr::Encoder enc;
  enc.put_string(channel);
  encode_channel_config(enc, config);
  return std::move(enc).finish();
}
}  // namespace

Result<std::unique_ptr<GridBufferWriter>> GridBufferWriter::open(
    net::Transport& transport, const net::Endpoint& server,
    const std::string& channel, Options options) {
  auto writer = std::unique_ptr<GridBufferWriter>(
      new GridBufferWriter(transport, server, channel, options));
  GL_ASSIGN_OR_RETURN(
      const Buffer reply,
      writer->rpc_.call(method_id(Method::kOpenWrite),
                        encode_open(channel, options.channel)));
  (void)reply;
  return writer;
}

GridBufferWriter::GridBufferWriter(net::Transport& transport,
                                   const net::Endpoint& server,
                                   std::string channel, Options options)
    : channel_(std::move(channel)), options_(options),
      run_bytes_(std::max<std::size_t>(
                     1, options.window_blocks /
                            static_cast<std::size_t>(
                                std::max(1, options.flusher_threads))) *
                 options.channel.block_size),
      window_bytes_(std::max<std::uint64_t>(1, options.window_blocks) *
                    options.channel.block_size),
      rpc_(transport, server, options.wire) {}

GridBufferWriter::~GridBufferWriter() {
  if (const Status s = close(); !s.is_ok()) {
    GL_LOG(kWarn, "grid buffer writer close on destruct: ", s);
  }
}

Buffer GridBufferWriter::write_request(std::uint64_t offset,
                                       Buffer data) const {
  xdr::Encoder enc;
  enc.put_string(channel_);
  enc.put_u64(offset);
  return std::move(enc).finish_with_bytes(std::move(data));
}

Status GridBufferWriter::receive_run() {
  const Status acked = rpc_.receive().status();
  acked_bytes_ += on_wire_.front();
  on_wire_.pop_front();
  if (error_.is_ok()) error_ = acked;
  return error_;
}

Status GridBufferWriter::seal_open() {
  const std::size_t bs = options_.channel.block_size;
  const std::size_t whole = open_.filled / bs * bs;
  if (whole == 0) return Status::ok();
  const std::uint64_t offset = open_.offset;
  Buffer run = open_.storage.slice(0, whole);
  Run tail;
  if (whole < open_.filled) {
    tail.offset = open_.offset + whole;
    tail.filled = open_.filled - whole;
    tail.storage = Buffer::uninitialized(bs, tail.out);
    std::memcpy(tail.out.data(), open_.out.data() + whole, tail.filled);
  }
  open_ = std::move(tail);  // the run's storage has one owner now
  while (on_wire_.size() >=
         static_cast<std::size_t>(std::max(1, options_.flusher_threads))) {
    GL_RETURN_IF_ERROR(receive_run());
  }
  error_ = rpc_.send(method_id(Method::kWrite),
                     write_request(offset, std::move(run)));
  if (error_.is_ok()) on_wire_.push_back(whole);
  return error_;
}

void GridBufferWriter::reserve_open(std::size_t more) {
  const std::size_t bs = options_.channel.block_size;
  const std::size_t want =
      std::min(run_bytes_, (open_.filled + more + bs - 1) / bs * bs);
  if (open_.out.size() >= want) return;
  Run grown;
  grown.offset = cursor_ - open_.filled;
  grown.filled = open_.filled;
  grown.storage = Buffer::uninitialized(want, grown.out);
  if (grown.filled > 0) {
    std::memcpy(grown.out.data(), open_.out.data(), grown.filled);
  }
  open_ = std::move(grown);
}

Status GridBufferWriter::write(ByteSpan data) {
  if (closed_) return failed_precondition("write on closed grid buffer");
  GL_RETURN_IF_ERROR(error_);
  while (!data.empty()) {
    // At most window_bytes_ accepted but unacknowledged. Besides the runs
    // on the wire only open_ is, and it holds less than a run, so the
    // credit returns as the oldest runs are acknowledged.
    while (cursor_ - acked_bytes_ >= window_bytes_) {
      GL_RETURN_IF_ERROR(receive_run());
    }
    const std::uint64_t credit = window_bytes_ - (cursor_ - acked_bytes_);
    reserve_open(data.size());
    const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(
        {data.size(), credit, open_.out.size() - open_.filled}));
    std::memcpy(open_.out.data() + open_.filled, data.data(), take);
    open_.filled += take;
    cursor_ += take;
    data = data.subspan(take);
    if (open_.filled == run_bytes_) GL_RETURN_IF_ERROR(seal_open());
  }
  // Cutting runs only here and when full makes the kWrite sequence a
  // function of the write sizes alone.
  return seal_open();
}

Status GridBufferWriter::flush() {
  if (closed_) return Status::ok();
  // Every acknowledgement is taken, even after a failure, so that the
  // connection is idle for the calls below and close().
  Status drained = error_;
  while (!on_wire_.empty()) drained = receive_run();
  GL_RETURN_IF_ERROR(drained);
  if (open_.filled == 0) return Status::ok();
  // The partial last block.
  return rpc_
      .call(method_id(Method::kWrite),
            write_request(open_.offset,
                          ByteSpan(open_.out.first(open_.filled))))
      .status();
}

Status GridBufferWriter::close() {
  if (closed_) return Status::ok();
  const Status flushed = flush();
  closed_ = true;
  xdr::Encoder enc;
  enc.put_string(channel_);
  auto reply = rpc_.call(method_id(Method::kCloseWrite), enc.buffer());
  GL_RETURN_IF_ERROR(flushed);
  return reply.status();
}

Result<std::unique_ptr<GridBufferReader>> GridBufferReader::open(
    net::Transport& transport, const net::Endpoint& server,
    const std::string& channel, Options options) {
  auto reader = std::unique_ptr<GridBufferReader>(
      new GridBufferReader(transport, server, channel, options));
  GL_ASSIGN_OR_RETURN(
      const Buffer reply,
      reader->rpc_.call(method_id(Method::kOpenRead),
                        encode_open(channel, options.channel)));
  xdr::Decoder dec(reply);
  GL_ASSIGN_OR_RETURN(reader->reader_id_, dec.u64());
  return reader;
}

GridBufferReader::GridBufferReader(net::Transport& transport,
                                   net::Endpoint server, std::string channel,
                                   Options options)
    : rpc_(transport, std::move(server), options.wire),
      channel_(std::move(channel)), options_(options) {}

GridBufferReader::~GridBufferReader() {
  if (const Status s = close(); !s.is_ok()) {
    GL_LOG(kWarn, "grid buffer reader close on destruct: ", s);
  }
}

Result<std::size_t> GridBufferReader::read(MutableByteSpan out) {
  if (closed_) return failed_precondition("read on closed grid buffer");
  std::size_t got = 0;
  while (got < out.size()) {
    xdr::Encoder enc;
    enc.put_string(channel_);
    enc.put_u64(reader_id_);
    enc.put_u64(cursor_);
    enc.put_u32(static_cast<std::uint32_t>(out.size() - got));
    enc.put_u64(options_.read_deadline_ms);
    GL_ASSIGN_OR_RETURN(const Buffer reply,
                        rpc_.call(method_id(Method::kRead), enc.buffer()));
    xdr::Decoder dec(reply);
    GL_ASSIGN_OR_RETURN(const bool eof, dec.boolean());
    GL_ASSIGN_OR_RETURN(const std::uint64_t frontier, dec.u64());
    (void)frontier;
    GL_ASSIGN_OR_RETURN(const Buffer data, dec.bytes());
    if (data.size() > out.size() - got) {
      return data_loss(strings::cat("grid buffer read of ", channel_, ": ",
                                    data.size(), " bytes returned for ",
                                    out.size() - got, " requested"));
    }
    std::copy(data.begin(), data.end(),
              out.begin() + static_cast<std::ptrdiff_t>(got));
    got += data.size();
    cursor_ += data.size();
    if (eof && data.empty()) break;
    if (data.empty() && !eof) {
      return internal_error("grid buffer read returned no data without eof");
    }
    if (eof) break;
  }
  return got;
}

Result<std::uint64_t> GridBufferReader::seek(std::int64_t offset,
                                             std::uint8_t whence) {
  if (closed_) return failed_precondition("seek on closed grid buffer");
  std::int64_t base = 0;
  switch (whence) {
    case 0: base = 0; break;
    case 1: base = static_cast<std::int64_t>(cursor_); break;
    case 2: {
      GL_ASSIGN_OR_RETURN(const std::uint64_t total, size());
      base = static_cast<std::int64_t>(total);
      break;
    }
    default: return invalid_argument("bad whence");
  }
  const std::int64_t target = base + offset;
  if (target < 0) return invalid_argument("seek before start of stream");
  cursor_ = static_cast<std::uint64_t>(target);
  return cursor_;
}

Result<std::uint64_t> GridBufferReader::size() {
  xdr::Encoder enc;
  enc.put_string(channel_);
  enc.put_bool(true);  // wait for eof
  enc.put_u64(options_.read_deadline_ms);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc_.call(method_id(Method::kStat), enc.buffer()));
  xdr::Decoder dec(reply);
  GL_ASSIGN_OR_RETURN(const bool eof, dec.boolean());
  GL_ASSIGN_OR_RETURN(const std::uint64_t frontier, dec.u64());
  if (!eof) return unavailable("stream still being written");
  return frontier;
}

Status GridBufferReader::close() {
  if (closed_) return Status::ok();
  closed_ = true;
  xdr::Encoder enc;
  enc.put_string(channel_);
  enc.put_u64(reader_id_);
  auto reply = rpc_.call(method_id(Method::kCloseRead), enc.buffer());
  return reply.status();
}

}  // namespace griddles::gridbuffer
