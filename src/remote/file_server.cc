#include "src/remote/file_server.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/strings.h"
#include "src/obs/span.h"
#include "src/vfs/local_client.h"
#include "src/xdr/codec.h"

namespace griddles::remote {

namespace fs = std::filesystem;

namespace {
Status errno_status(const char* op, const std::string& path) {
  return io_error(
      strings::cat(op, " ", path, ": ", strings::errno_message(errno)));
}

/// Up to `length` bytes of `fd` at `offset` (short at end of file),
/// read straight into a reply-ready buffer.
Result<Buffer> read_at(int fd, std::uint64_t offset, std::uint32_t length,
                       const std::string& what) {
  MutableByteSpan out;
  Buffer data = Buffer::uninitialized(length, out);
  std::size_t got = 0;
  while (got < length) {
    const ssize_t n = ::pread(fd, out.data() + got, length - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("pread", what);
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return data.slice(0, got);
}
}  // namespace

FileServer::FileServer(fs::path root, net::Transport& transport,
                       net::Endpoint bind, net::WireFormat format)
    : root_(std::move(root)),
      rpc_(transport, std::move(bind), format),
      forwarder_(transport) {
  register_handlers();
}

FileServer::~FileServer() { stop(); }

Status FileServer::start() {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    return io_error(strings::cat("file server root ", root_.string(), ": ",
                                 ec.message()));
  }
  return rpc_.start();
}

void FileServer::stop() {
  rpc_.stop();
  MutexLock lock(mu_);
  for (auto& [handle, file] : handles_) {
    if (file.fd >= 0) ::close(file.fd);
  }
  handles_.clear();
}

std::size_t FileServer::open_handles() const {
  MutexLock lock(mu_);
  return handles_.size();
}

Result<fs::path> FileServer::resolve(const std::string& path) const {
  // Server paths are always relative to the exported root; reject any
  // component that would climb out.
  const fs::path rel(path);
  if (rel.is_absolute()) {
    return permission_denied(
        strings::cat("absolute server path rejected: ", path));
  }
  for (const auto& part : rel) {
    if (part == "..") {
      return permission_denied(
          strings::cat("path escapes the export root: ", path));
    }
  }
  return root_ / rel;
}

void FileServer::register_handlers() {
  auto bind = [this](Method m,
                     Result<Buffer> (FileServer::*fn)(const Buffer&)) {
    rpc_.register_method(
        method_id(m),
        [this, fn](const Buffer& request, const net::RpcContext&) {
          return (this->*fn)(request);
        });
  };
  bind(Method::kOpen, &FileServer::handle_open);
  bind(Method::kClose, &FileServer::handle_close);
  bind(Method::kPread, &FileServer::handle_pread);
  bind(Method::kPwrite, &FileServer::handle_pwrite);
  bind(Method::kStat, &FileServer::handle_stat);
  bind(Method::kGetChunk, &FileServer::handle_get_chunk);
  bind(Method::kPutChunk, &FileServer::handle_put_chunk);
  bind(Method::kTruncate, &FileServer::handle_truncate);
  bind(Method::kRemove, &FileServer::handle_remove);
  bind(Method::kList, &FileServer::handle_list);
  bind(Method::kChecksum, &FileServer::handle_checksum);
  bind(Method::kRelayChunk, &FileServer::handle_relay_chunk);
}

Result<Buffer> FileServer::handle_open(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
  GL_ASSIGN_OR_RETURN(const bool read, dec.boolean());
  GL_ASSIGN_OR_RETURN(const bool write, dec.boolean());
  GL_ASSIGN_OR_RETURN(const bool create, dec.boolean());
  GL_ASSIGN_OR_RETURN(const bool truncate, dec.boolean());
  GL_ASSIGN_OR_RETURN(const fs::path full, resolve(path));

  int oflags = 0;
  if (read && write) {
    oflags = O_RDWR;
  } else if (write) {
    oflags = O_WRONLY;
  } else {
    oflags = O_RDONLY;
  }
  if (create) {
    oflags |= O_CREAT;
    std::error_code ec;
    fs::create_directories(full.parent_path(), ec);
  }
  if (truncate) oflags |= O_TRUNC;
  const int fd = ::open(full.c_str(), oflags, 0644);
  if (fd < 0) {
    if (errno == ENOENT) {
      return not_found(strings::cat("remote file not found: ", path));
    }
    return errno_status("open", path);
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return errno_status("lseek", path);
  }

  std::uint64_t handle;
  {
    MutexLock lock(mu_);
    handle = next_handle_++;
    handles_[handle] = OpenFile{fd, write, path};
  }
  xdr::Encoder enc;
  enc.put_u64(handle);
  enc.put_u64(static_cast<std::uint64_t>(size));
  return std::move(enc).finish();
}

Result<Buffer> FileServer::handle_close(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::uint64_t handle, dec.u64());
  MutexLock lock(mu_);
  const auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return not_found(strings::cat("no such handle ", handle));
  }
  if (it->second.fd >= 0) ::close(it->second.fd);
  handles_.erase(it);
  return Buffer{};
}

Result<Buffer> FileServer::handle_pread(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::uint64_t handle, dec.u64());
  GL_ASSIGN_OR_RETURN(const std::uint64_t offset, dec.u64());
  GL_ASSIGN_OR_RETURN(const std::uint32_t length, dec.u32());
  int fd = -1;
  {
    MutexLock lock(mu_);
    const auto it = handles_.find(handle);
    if (it == handles_.end()) {
      return not_found(strings::cat("no such handle ", handle));
    }
    fd = it->second.fd;
  }
  GL_ASSIGN_OR_RETURN(Buffer data, read_at(fd, offset, length,
                                           strings::cat("handle ", handle)));
  xdr::Encoder enc;
  return std::move(enc).finish_with_bytes(std::move(data));
}

Result<Buffer> FileServer::handle_pwrite(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::uint64_t handle, dec.u64());
  GL_ASSIGN_OR_RETURN(const std::uint64_t offset, dec.u64());
  GL_ASSIGN_OR_RETURN(const Buffer data, dec.bytes());
  int fd = -1;
  {
    MutexLock lock(mu_);
    const auto it = handles_.find(handle);
    if (it == handles_.end()) {
      return not_found(strings::cat("no such handle ", handle));
    }
    if (!it->second.writable) {
      return permission_denied("handle not open for writing");
    }
    fd = it->second.fd;
  }
  std::size_t put = 0;
  while (put < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + put, data.size() - put,
                               static_cast<off_t>(offset + put));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("pwrite", strings::cat("handle ", handle));
    }
    put += static_cast<std::size_t>(n);
  }
  xdr::Encoder enc;
  enc.put_u64(put);
  return std::move(enc).finish();
}

Result<Buffer> FileServer::handle_stat(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
  GL_ASSIGN_OR_RETURN(const fs::path full, resolve(path));
  xdr::Encoder enc;
  std::error_code ec;
  const auto size = fs::file_size(full, ec);
  if (ec) {
    enc.put_bool(false);
    enc.put_u64(0);
  } else {
    enc.put_bool(true);
    enc.put_u64(size);
  }
  return std::move(enc).finish();
}

Result<Buffer> FileServer::handle_get_chunk(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
  GL_ASSIGN_OR_RETURN(const std::uint64_t offset, dec.u64());
  GL_ASSIGN_OR_RETURN(const std::uint32_t length, dec.u32());
  GL_ASSIGN_OR_RETURN(const fs::path full, resolve(path));
  const int fd = ::open(full.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return not_found(strings::cat("remote file not found: ", path));
    }
    return errno_status("open", path);
  }
  Result<Buffer> data = read_at(fd, offset, length, path);
  ::close(fd);
  GL_RETURN_IF_ERROR(data.status());
  xdr::Encoder enc;
  return std::move(enc).finish_with_bytes(std::move(*data));
}

Status FileServer::write_chunk(const std::string& path, std::uint64_t offset,
                               bool truncate_to_offset, ByteSpan data) {
  GL_ASSIGN_OR_RETURN(const fs::path full, resolve(path));
  std::error_code ec;
  fs::create_directories(full.parent_path(), ec);
  const int fd = ::open(full.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return errno_status("open", path);
  Status status = Status::ok();
  if (truncate_to_offset &&
      ::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
    status = errno_status("ftruncate", path);
  }
  std::size_t put = 0;
  while (status.is_ok() && put < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + put, data.size() - put,
                               static_cast<off_t>(offset + put));
    if (n < 0) {
      if (errno == EINTR) continue;
      status = errno_status("pwrite", path);
      break;
    }
    put += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return status;
}

Result<Buffer> FileServer::handle_put_chunk(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
  GL_ASSIGN_OR_RETURN(const std::uint64_t offset, dec.u64());
  GL_ASSIGN_OR_RETURN(const bool truncate_to_offset, dec.boolean());
  GL_ASSIGN_OR_RETURN(const Buffer data, dec.bytes());
  GL_RETURN_IF_ERROR(write_chunk(path, offset, truncate_to_offset, data));
  return Buffer{};
}

Result<Buffer> FileServer::handle_relay_chunk(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const multicast::RelayNode node,
                      multicast::decode_node(dec));
  GL_ASSIGN_OR_RETURN(const std::uint64_t offset, dec.u64());
  GL_ASSIGN_OR_RETURN(const bool truncate_to_offset, dec.boolean());
  GL_ASSIGN_OR_RETURN(const Buffer data, dec.bytes());

  const std::string host = rpc_.endpoint().host;
  obs::Span span(obs::SpanKind::kRelay,
                 [&] { return strings::cat("relay:", host); });
  span.add_attr("path", node.path);
  span.add_attr("children",
                [&] { return strings::cat(node.children.size()); });

  // An injected die@relay:<host> keys on the cumulative bytes this server
  // has relayed; once it fires the hop fails and the parent adopts.
  const std::uint64_t cumulative =
      relayed_bytes_.fetch_add(data.size(), std::memory_order_relaxed) +
      data.size();
  GL_RETURN_IF_ERROR(multicast::consult_relay_fault(host, cumulative));

  GL_RETURN_IF_ERROR(
      write_chunk(node.path, offset, truncate_to_offset, data));

  std::vector<std::string> dead;
  multicast::relay_block(
      forwarder_, node.children, method_id(Method::kRelayChunk),
      [&](const multicast::RelayNode& child) {
        xdr::Encoder enc;
        multicast::encode_node(enc, child);
        enc.put_u64(offset);
        enc.put_bool(truncate_to_offset);
        return std::move(enc).finish_with_bytes(data);
      },
      dead);

  return multicast::encode_dead_hosts(dead);
}

Result<Buffer> FileServer::handle_truncate(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
  GL_ASSIGN_OR_RETURN(const std::uint64_t size, dec.u64());
  GL_ASSIGN_OR_RETURN(const fs::path full, resolve(path));
  if (::truncate(full.c_str(), static_cast<off_t>(size)) != 0) {
    return errno_status("truncate", path);
  }
  return Buffer{};
}

Result<Buffer> FileServer::handle_remove(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
  GL_ASSIGN_OR_RETURN(const fs::path full, resolve(path));
  std::error_code ec;
  fs::remove(full, ec);
  if (ec) return io_error(strings::cat("remove ", path, ": ", ec.message()));
  return Buffer{};
}

Result<Buffer> FileServer::handle_list(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
  GL_ASSIGN_OR_RETURN(const fs::path full, resolve(path));
  std::error_code ec;
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(full, ec)) {
    names.push_back(entry.path().filename().string());
  }
  if (ec) return io_error(strings::cat("list ", path, ": ", ec.message()));
  xdr::Encoder enc;
  enc.put_vector(names, [](xdr::Encoder& e, const std::string& name) {
    e.put_string(name);
  });
  return std::move(enc).finish();
}

Result<Buffer> FileServer::handle_checksum(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
  GL_ASSIGN_OR_RETURN(const fs::path full, resolve(path));
  GL_ASSIGN_OR_RETURN(const Bytes contents, vfs::read_file(full.string()));
  xdr::Encoder enc;
  enc.put_u64(fnv1a(contents));
  enc.put_u64(contents.size());
  return std::move(enc).finish();
}

}  // namespace griddles::remote
