#include "src/remote/file_server.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
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

void FileServer::stop() { rpc_.stop(); }

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
  bind(Method::kStat, &FileServer::handle_stat);
  bind(Method::kGetChunk, &FileServer::handle_get_chunk);
  bind(Method::kPutChunk, &FileServer::handle_put_chunk);
  bind(Method::kChecksum, &FileServer::handle_checksum);
  bind(Method::kRelayChunk, &FileServer::handle_relay_chunk);
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
  // Read straight into a reply-ready buffer, and keep no second reference
  // to it: a shared body makes finish_with_bytes copy it whole.
  MutableByteSpan out;
  Buffer data = Buffer::uninitialized(length, out);
  const Result<std::size_t> got = vfs::pread_full(fd, offset, out, path);
  ::close(fd);
  GL_RETURN_IF_ERROR(got.status());
  data = data.slice(0, *got);
  xdr::Encoder enc;
  return std::move(enc).finish_with_bytes(std::move(data));
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
  if (status.is_ok()) status = vfs::pwrite_full(fd, offset, data, path);
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
        return relay_chunk_request(child, offset, truncate_to_offset, data);
      },
      dead);

  return multicast::encode_dead_hosts(dead);
}

Result<Buffer> FileServer::handle_checksum(const Buffer& request) {
  xdr::Decoder dec(request);
  GL_ASSIGN_OR_RETURN(const std::string path, dec.string());
  GL_ASSIGN_OR_RETURN(const fs::path full, resolve(path));
  GL_ASSIGN_OR_RETURN(const vfs::FileDigest digest,
                      vfs::digest_file(full.string()));
  xdr::Encoder enc;
  enc.put_u64(digest.fnv1a);
  enc.put_u64(digest.size);
  return std::move(enc).finish();
}

}  // namespace griddles::remote
