#include "src/remote/remote_client.h"

#include <algorithm>

#include "src/common/strings.h"

namespace griddles::remote {

Result<std::unique_ptr<RemoteFileClient>> RemoteFileClient::open(
    net::Transport& transport, const net::Endpoint& server_endpoint,
    const std::string& remote_path, vfs::OpenFlags flags, Options options) {
  if (options.block_size == 0) {
    return invalid_argument("remote client block size must be positive");
  }
  auto rpc = std::make_unique<net::RpcClient>(transport, server_endpoint);
  // An empty put creates the file (and its directories) or cuts it. The
  // put always creates, so a cut without `create` checks existence first.
  if (flags.create || flags.truncate) {
    if (!flags.create) {
      GL_RETURN_IF_ERROR(remote_size(*rpc, remote_path).status());
    }
    GL_RETURN_IF_ERROR(
        put_chunk(*rpc, remote_path, 0, flags.truncate, Buffer()));
  }
  std::uint64_t size = 0;
  if (!flags.truncate) {
    GL_ASSIGN_OR_RETURN(size, remote_size(*rpc, remote_path));
  }
  auto client = std::unique_ptr<RemoteFileClient>(new RemoteFileClient(
      std::move(rpc), size, remote_path, flags, options));
  client->cursor_ = flags.append ? size : 0;
  return client;
}

RemoteFileClient::RemoteFileClient(std::unique_ptr<net::RpcClient> rpc,
                                   std::uint64_t size,
                                   std::string remote_path,
                                   vfs::OpenFlags flags, Options options)
    : rpc_(std::move(rpc)), size_(size),
      remote_path_(std::move(remote_path)), flags_(flags),
      options_(options) {}

void RemoteFileClient::cache_insert(std::uint64_t block_start,
                                    const Buffer& data) {
  const auto existing = lru_index_.find(block_start);
  if (existing != lru_index_.end()) {
    lru_.erase(existing->second);
    lru_index_.erase(existing);
  }
  lru_.push_front(block_start);
  lru_index_[block_start] = lru_.begin();
  // The reply's block slice, unless it is a small part of the reply.
  cache_[block_start] = data.compact();
  while (cache_.size() > options_.cache_blocks && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    lru_index_.erase(victim);
    cache_.erase(victim);
  }
}

void RemoteFileClient::cache_invalidate_range(std::uint64_t offset,
                                              std::size_t length) {
  if (length == 0) return;
  const std::uint64_t block = options_.block_size;
  const std::uint64_t first = offset / block * block;
  const std::uint64_t last = (offset + length - 1) / block * block;
  for (std::uint64_t start = first; start <= last; start += block) {
    const auto it = cache_.find(start);
    if (it != cache_.end()) {
      cache_.erase(it);
      const auto lru_it = lru_index_.find(start);
      if (lru_it != lru_index_.end()) {
        lru_.erase(lru_it->second);
        lru_index_.erase(lru_it);
      }
    }
  }
}

Result<const Buffer*> RemoteFileClient::block_at(
    std::uint64_t block_start) {
  const auto hit = cache_.find(block_start);
  if (hit != cache_.end()) {
    ++cache_hits_;
    const auto lru_it = lru_index_.find(block_start);
    lru_.splice(lru_.begin(), lru_, lru_it->second);
    return &hit->second;
  }
  ++cache_misses_;
  GL_ASSIGN_OR_RETURN(
      const Buffer data,
      get_chunk(*rpc_, remote_path_, block_start, options_.block_size));
  bytes_fetched_ += data.size();
  cache_insert(block_start, data);
  return &cache_[block_start];
}

Result<std::size_t> RemoteFileClient::read(MutableByteSpan out) {
  if (closed_) return failed_precondition("read on closed remote file");
  if (!flags_.read) return permission_denied("file not open for reading");
  std::size_t got = 0;
  while (got < out.size()) {
    const std::uint64_t block_start =
        cursor_ / options_.block_size * options_.block_size;
    auto block_or = block_at(block_start);
    if (!block_or.is_ok()) {
      // Surface the error only if nothing was delivered; otherwise the
      // caller gets the partial data and hits the error on its next read
      // (cursor_ still points at the undelivered byte).
      if (got > 0) return got;
      return block_or.status();
    }
    const Buffer* block = *block_or;
    const std::uint64_t in_block = cursor_ - block_start;
    if (in_block >= block->size()) break;  // EOF (short block)
    const std::size_t take = std::min<std::size_t>(
        out.size() - got, block->size() - in_block);
    std::copy_n(block->begin() + static_cast<std::ptrdiff_t>(in_block), take,
                out.begin() + static_cast<std::ptrdiff_t>(got));
    cursor_ += take;
    got += take;
    // A block shorter than block_size marks the end of the file, unless
    // the file grew; stop here and let the caller re-read for more.
    if (block->size() < options_.block_size &&
        in_block + take >= block->size()) {
      break;
    }
  }
  return got;
}

Result<std::size_t> RemoteFileClient::write(ByteSpan data) {
  if (closed_) return failed_precondition("write on closed remote file");
  if (!flags_.write) return permission_denied("file not open for writing");
  GL_RETURN_IF_ERROR(put_chunk(*rpc_, remote_path_, cursor_, false, data));
  cache_invalidate_range(cursor_, data.size());
  cursor_ += data.size();
  size_ = std::max(size_, cursor_);
  return data.size();
}

Result<std::uint64_t> RemoteFileClient::seek(std::int64_t offset,
                                             vfs::Whence whence) {
  if (closed_) return failed_precondition("seek on closed remote file");
  std::int64_t base = 0;
  switch (whence) {
    case vfs::Whence::kSet: base = 0; break;
    case vfs::Whence::kCurrent: base = static_cast<std::int64_t>(cursor_);
      break;
    case vfs::Whence::kEnd: base = static_cast<std::int64_t>(size_); break;
  }
  const std::int64_t target = base + offset;
  if (target < 0) return invalid_argument("seek before start of file");
  cursor_ = static_cast<std::uint64_t>(target);
  return cursor_;
}

std::uint64_t RemoteFileClient::tell() const { return cursor_; }

Result<std::uint64_t> RemoteFileClient::size() {
  if (closed_) return failed_precondition("size of closed remote file");
  return size_;
}

Status RemoteFileClient::flush() { return Status::ok(); }

Status RemoteFileClient::close() {
  closed_ = true;
  return Status::ok();
}

std::string RemoteFileClient::describe() const {
  return strings::cat("remote:", rpc_->server().to_string(), "!",
                      remote_path_);
}

}  // namespace griddles::remote
