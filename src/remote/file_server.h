// The remote file server: GriddLeS' stand-in for a GridFTP server.
//
// Serves one exported directory tree over RPC. Paths are validated so a
// client can never escape the root. Positioned reads/writes (pread/
// pwrite) make concurrent handles and parallel copy streams safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "src/multicast/relay.h"
#include "src/net/rpc.h"
#include "src/common/thread_annotations.h"
#include "src/remote/protocol.h"

namespace griddles::remote {

class FileServer {
 public:
  /// Exports `root` (created if missing) at `bind`.
  FileServer(std::filesystem::path root, net::Transport& transport,
             net::Endpoint bind,
             net::WireFormat format = net::WireFormat::kBinary);
  ~FileServer();

  Status start();
  void stop();
  net::Endpoint endpoint() const { return rpc_.endpoint(); }
  const std::filesystem::path& root() const noexcept { return root_; }

  /// Open handles currently held by clients (for leak tests).
  std::size_t open_handles() const;

 private:
  struct OpenFile {
    int fd = -1;
    bool writable = false;
    std::string path;
  };

  void register_handlers();
  Result<std::filesystem::path> resolve(const std::string& path) const;
  Result<Buffer> handle_open(const Buffer& request);
  Result<Buffer> handle_close(const Buffer& request);
  Result<Buffer> handle_pread(const Buffer& request);
  Result<Buffer> handle_pwrite(const Buffer& request);
  Result<Buffer> handle_stat(const Buffer& request);
  Result<Buffer> handle_get_chunk(const Buffer& request);
  Result<Buffer> handle_put_chunk(const Buffer& request);
  Result<Buffer> handle_truncate(const Buffer& request);
  Result<Buffer> handle_remove(const Buffer& request);
  Result<Buffer> handle_list(const Buffer& request);
  Result<Buffer> handle_checksum(const Buffer& request);
  Result<Buffer> handle_relay_chunk(const Buffer& request);

  /// Shared pwrite body of kPutChunk and kRelayChunk.
  Status write_chunk(const std::string& path, std::uint64_t offset,
                     bool truncate_to_offset, ByteSpan data);

  std::filesystem::path root_;
  net::RpcServer rpc_;
  multicast::RelayForwarder forwarder_;
  /// Cumulative bytes this server forwarded as a relay — the `after=`
  /// high-water mark of `die@relay:<host>` fault rules.
  // lint: not-a-metric (fault-site high-water mark)
  std::atomic<std::uint64_t> relayed_bytes_{0};
  mutable Mutex mu_;
  std::map<std::uint64_t, OpenFile> handles_ GUARDED_BY(mu_);
  std::uint64_t next_handle_ GUARDED_BY(mu_) = 1;
};

}  // namespace griddles::remote
