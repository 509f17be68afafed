// LocalFileClient: the pass-through to the conventional local file system
// (the paper's "Local File Client", Figure 4), plus small local-FS
// helpers shared by the staging and cache code.
#pragma once

#include <filesystem>
#include <memory>
#include <string>

#include "src/vfs/file_client.h"

namespace griddles::vfs {

class LocalFileClient final : public FileClient {
 public:
  /// Opens `path` with fopen-style semantics.
  static Result<std::unique_ptr<LocalFileClient>> open(
      const std::string& path, OpenFlags flags);

  ~LocalFileClient() override;

  LocalFileClient(const LocalFileClient&) = delete;
  LocalFileClient& operator=(const LocalFileClient&) = delete;

  Result<std::size_t> read(MutableByteSpan out) override;
  Result<std::size_t> write(ByteSpan data) override;
  Result<std::uint64_t> seek(std::int64_t offset, Whence whence) override;
  std::uint64_t tell() const override;
  Result<std::uint64_t> size() override;
  Status flush() override;
  Status close() override;
  std::string describe() const override;

  const std::string& path() const noexcept { return path_; }

 private:
  LocalFileClient(int fd, std::string path, bool readable, bool writable);

  int fd_;
  std::string path_;
  bool readable_;
  bool writable_;
  std::uint64_t cursor_ = 0;
};

/// Reads a whole local file.
Result<Bytes> read_file(const std::string& path);

/// Writes (create/truncate) a whole local file, creating parent dirs.
Status write_file(const std::string& path, ByteSpan data);

/// Size of a local file.
Result<std::uint64_t> file_size(const std::string& path);

/// Reads up to `out.size()` bytes of `fd` at `offset`, short only at end
/// of file, retrying EINTR. Errors name `what`.
Result<std::size_t> pread_full(int fd, std::uint64_t offset,
                               MutableByteSpan out, const std::string& what);

/// Writes all of `data` to `fd` at `offset`, retrying EINTR. Errors name
/// `what`.
Status pwrite_full(int fd, std::uint64_t offset, ByteSpan data,
                   const std::string& what);

/// A local file's FNV-1a and byte count, read in fixed-size chunks so the
/// memory used does not grow with the file.
struct FileDigest {
  std::uint64_t fnv1a = 0;
  std::uint64_t size = 0;
};
Result<FileDigest> digest_file(const std::string& path);

}  // namespace griddles::vfs
