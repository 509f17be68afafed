#include "src/gridbuffer/client.h"

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/span.h"
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
      writer->control_.call(method_id(Method::kOpenWrite),
                            encode_open(channel, options.channel)));
  (void)reply;
  if (!options.synchronous) {
    const int threads = std::max(1, options.flusher_threads);
    writer->flushers_.reserve(static_cast<std::size_t>(threads));
    // Hand the opener's trace context to the flusher threads so their
    // write RPCs (and any server-side backpressure stalls) parent to
    // the stage that opened this writer instead of surfacing as
    // orphan root traces. The opener's end-to-end budget rides along
    // the same way, so flushed writes still carry its deadline.
    const obs::TraceContext trace_parent = obs::current_context();
    const std::optional<WallClock::time_point> budget = current_deadline();
    for (int i = 0; i < threads; ++i) {
      writer->flushers_.emplace_back([w = writer.get(), trace_parent,
                                      budget] {
        obs::ScopedTraceContext trace_scope(trace_parent);
        ScopedDeadline deadline_scope(budget);
        w->flusher_main();
      });
    }
  }
  return writer;
}

GridBufferWriter::GridBufferWriter(net::Transport& transport,
                                   net::Endpoint server, std::string channel,
                                   Options options)
    : transport_(transport), server_(std::move(server)),
      channel_(std::move(channel)), options_(options),
      control_(transport, server_, options.wire),
      queue_(options.window_blocks == 0 ? 1 : options.window_blocks) {
  pending_.reserve(options_.channel.block_size);
}

GridBufferWriter::~GridBufferWriter() {
  if (const Status s = close(); !s.is_ok()) {
    GL_LOG(kWarn, "grid buffer writer close on destruct: ", s);
  }
}

Status GridBufferWriter::pipeline_error() const {
  MutexLock lock(mu_);
  return flusher_status_;
}

Status GridBufferWriter::send_block(net::RpcClient& rpc, std::uint64_t offset,
                                    Buffer data) {
  xdr::Encoder enc;
  enc.put_string(channel_);
  enc.put_u64(offset);
  return rpc
      .call(method_id(Method::kWrite),
            std::move(enc).finish_with_bytes(std::move(data)))
      .status();
}

void GridBufferWriter::flusher_main() {
  net::RpcClient rpc(transport_, server_, options_.wire);
  while (true) {
    auto item = queue_.pop();
    if (!item) return;  // queue closed and drained
    const Status sent = send_block(rpc, item->offset, std::move(item->data));
    {
      MutexLock lock(mu_);
      // Keep draining so close() does not hang, but drop the data.
      if (!sent.is_ok() && flusher_status_.is_ok()) flusher_status_ = sent;
      ++acked_blocks_;
    }
    acked_.notify_all();
  }
}

Status GridBufferWriter::write(ByteSpan data) {
  if (closed_) return failed_precondition("write on closed grid buffer");
  GL_RETURN_IF_ERROR(pipeline_error());
  const std::uint32_t bs = options_.channel.block_size;
  while (!data.empty()) {
    Buffer block;
    if (pending_.empty() && data.size() >= bs) {
      // A whole block in the caller's bytes skips the staging copy.
      block = data.first(bs);
      data = data.subspan(bs);
      cursor_ += bs;
    } else {
      const std::size_t take = std::min<std::size_t>(bs - pending_.size(),
                                                     data.size());
      pending_.insert(pending_.end(), data.begin(),
                      data.begin() + static_cast<std::ptrdiff_t>(take));
      data = data.subspan(take);
      cursor_ += take;
      if (pending_.size() < bs) break;
      block = pending_;
      pending_.clear();
    }
    GL_RETURN_IF_ERROR(enqueue_block(block_start_, std::move(block)));
    block_start_ += bs;
  }
  return Status::ok();
}

Status GridBufferWriter::enqueue_block(std::uint64_t offset, Buffer block) {
  if (options_.synchronous) {
    return send_block(control_, offset, std::move(block));
  }
  if (!queue_.push(QueuedBlock{offset, std::move(block)})) {
    return closed_error("grid buffer write pipeline closed");
  }
  ++queued_blocks_;
  return Status::ok();
}

Status GridBufferWriter::flush() {
  if (closed_) return Status::ok();
  if (!pending_.empty()) {
    // Send the partial block; the stream may extend it later (the server
    // accepts extending rewrites at the same offset), so pending_ stays.
    GL_RETURN_IF_ERROR(enqueue_block(block_start_, pending_));
  }
  if (!options_.synchronous) {
    // Drain the pipeline: the flushers signal after every ack.
    const std::uint64_t queued = queued_blocks_;
    MutexLock lock(mu_);
    // lint: blocking-ok (monitor wait: releases mu_ until the acks catch up)
    acked_.wait(mu_, [&]() REQUIRES(mu_) { return acked_blocks_ >= queued; });
  }
  return pipeline_error();
}

Status GridBufferWriter::close() {
  if (closed_) return Status::ok();
  const Status flushed = flush();
  closed_ = true;
  queue_.close();
  for (std::thread& flusher : flushers_) {
    if (flusher.joinable()) flusher.join();
  }

  xdr::Encoder enc;
  enc.put_string(channel_);
  auto reply = control_.call(method_id(Method::kCloseWrite), enc.buffer());
  GL_RETURN_IF_ERROR(flushed);
  GL_RETURN_IF_ERROR(pipeline_error());
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
