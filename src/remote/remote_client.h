// RemoteFileClient: proxy-mode access to a file on a remote FileServer
// (the paper's "Remote File Client", Figure 4).
//
// Reads go through a client-side LRU block cache with sequential
// read-ahead sizing; writes are write-through (and invalidate overlapping
// cached blocks) so a reopened file always observes its own writes.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>

#include "src/net/rpc.h"
#include "src/remote/protocol.h"
#include "src/vfs/file_client.h"

namespace griddles::remote {

class RemoteFileClient final : public vfs::FileClient {
 public:
  struct Options {
    std::uint32_t block_size = kDefaultProxyBlock;
    std::size_t cache_blocks = 64;  // LRU capacity
  };

  /// Opens `remote_path` on the server at `server_endpoint`.
  static Result<std::unique_ptr<RemoteFileClient>> open(
      net::Transport& transport, const net::Endpoint& server_endpoint,
      const std::string& remote_path, vfs::OpenFlags flags, Options options);
  static Result<std::unique_ptr<RemoteFileClient>> open(
      net::Transport& transport, const net::Endpoint& server_endpoint,
      const std::string& remote_path, vfs::OpenFlags flags) {
    return open(transport, server_endpoint, remote_path, flags, Options{});
  }

  ~RemoteFileClient() override;

  Result<std::size_t> read(MutableByteSpan out) override;
  Result<std::size_t> write(ByteSpan data) override;
  Result<std::uint64_t> seek(std::int64_t offset, vfs::Whence whence) override;
  std::uint64_t tell() const override;
  Result<std::uint64_t> size() override;
  Status flush() override;
  Status close() override;
  std::string describe() const override;

  /// Cache statistics, for tests and the advisor ablation.
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_misses() const noexcept { return cache_misses_; }
  std::uint64_t bytes_fetched() const noexcept { return bytes_fetched_; }

 private:
  RemoteFileClient(std::unique_ptr<net::RpcClient> rpc, std::uint64_t handle,
                   std::uint64_t size, std::string remote_path,
                   vfs::OpenFlags flags, Options options);

  /// Returns the cached block starting at block_start, fetching on miss.
  Result<const Buffer*> block_at(std::uint64_t block_start);
  void cache_insert(std::uint64_t block_start, const Buffer& data);
  void cache_invalidate_range(std::uint64_t offset, std::size_t length);

  std::unique_ptr<net::RpcClient> rpc_;
  std::uint64_t handle_;
  std::uint64_t size_;
  std::string remote_path_;
  vfs::OpenFlags flags_;
  Options options_;
  std::uint64_t cursor_ = 0;
  bool closed_ = false;

  // LRU block cache: block start offset -> payload.
  std::map<std::uint64_t, Buffer> cache_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::map<std::uint64_t, std::list<std::uint64_t>::iterator> lru_index_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t bytes_fetched_ = 0;
};

}  // namespace griddles::remote
