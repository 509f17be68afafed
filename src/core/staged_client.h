// StagedFileClient: remote file accessed by whole-file copy (paper
// modes 2 and 5).
//
// At open the remote file is fetched into a local staging path (readable
// opens only); all IO then runs at local speed; if the file was written,
// close() pushes it back to the remote server — exactly the Legion /
// Nimrod copy-in/copy-out discipline the paper contrasts with proxy
// access.
#pragma once

#include <memory>
#include <string>

#include "src/common/clock.h"
#include "src/net/transport.h"
#include "src/vfs/local_client.h"

namespace griddles::core {

class StagedFileClient final : public vfs::FileClient {
 public:
  /// Fetches `remote_path` from `server` into `staging_path` (unless the
  /// open is write-only/truncating) and opens it locally.
  static Result<std::unique_ptr<StagedFileClient>> open(
      net::Transport& transport, Clock& clock, const net::Endpoint& server,
      const std::string& remote_path, const std::string& staging_path,
      vfs::OpenFlags flags);

  ~StagedFileClient() override;

  Result<std::size_t> read(MutableByteSpan out) override;
  Result<std::size_t> write(ByteSpan data) override;
  Result<std::uint64_t> seek(std::int64_t offset, vfs::Whence whence) override;
  std::uint64_t tell() const override;
  Result<std::uint64_t> size() override;
  Status flush() override;

  /// Closes the local file and, if it was opened writable, pushes the
  /// staged copy back to the remote server.
  Status close() override;

  std::string describe() const override;

 private:
  StagedFileClient(net::Transport& transport, Clock& clock,
                   net::Endpoint server, std::string remote_path,
                   std::string staging_path, vfs::OpenFlags flags);

  net::Transport& transport_;
  Clock& clock_;
  net::Endpoint server_;
  std::string remote_path_;
  std::string staging_path_;
  vfs::OpenFlags flags_;
  std::unique_ptr<vfs::LocalFileClient> local_;
  bool dirty_ = false;
  bool closed_ = false;
};

}  // namespace griddles::core
