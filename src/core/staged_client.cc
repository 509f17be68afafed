#include "src/core/staged_client.h"

#include "src/common/strings.h"
#include "src/remote/copier.h"

namespace griddles::core {

Result<std::unique_ptr<StagedFileClient>> StagedFileClient::open(
    net::Transport& transport, Clock& clock, const net::Endpoint& server,
    const std::string& remote_path, const std::string& staging_path,
    vfs::OpenFlags flags) {
  auto client = std::unique_ptr<StagedFileClient>(new StagedFileClient(
      transport, clock, server, remote_path, staging_path, flags));

  const bool need_existing_content = flags.read && !flags.truncate;
  if (need_existing_content) {
    remote::FileCopier copier(transport, clock);
    GL_RETURN_IF_ERROR(copier.fetch(server, remote_path, staging_path));
  }

  vfs::OpenFlags local_flags = flags;
  if (!need_existing_content) {
    local_flags.create = true;
    local_flags.truncate = true;
  }
  GL_ASSIGN_OR_RETURN(client->local_,
                      vfs::LocalFileClient::open(staging_path, local_flags));
  return client;
}

StagedFileClient::StagedFileClient(net::Transport& transport, Clock& clock,
                                   net::Endpoint server,
                                   std::string remote_path,
                                   std::string staging_path,
                                   vfs::OpenFlags flags)
    : transport_(transport), clock_(clock), server_(std::move(server)),
      remote_path_(std::move(remote_path)),
      staging_path_(std::move(staging_path)), flags_(flags) {}

StagedFileClient::~StagedFileClient() { (void)close(); }

Result<std::size_t> StagedFileClient::read(MutableByteSpan out) {
  if (closed_) return failed_precondition("read on closed staged file");
  return local_->read(out);
}

Result<std::size_t> StagedFileClient::write(ByteSpan data) {
  if (closed_) return failed_precondition("write on closed staged file");
  auto put = local_->write(data);
  if (put.is_ok() && *put > 0) dirty_ = true;
  return put;
}

Result<std::uint64_t> StagedFileClient::seek(std::int64_t offset,
                                             vfs::Whence whence) {
  if (closed_) return failed_precondition("seek on closed staged file");
  return local_->seek(offset, whence);
}

std::uint64_t StagedFileClient::tell() const {
  return local_ ? local_->tell() : 0;
}

Result<std::uint64_t> StagedFileClient::size() {
  if (closed_) return failed_precondition("size of closed staged file");
  return local_->size();
}

Status StagedFileClient::flush() {
  if (closed_) return Status::ok();
  return local_->flush();
}

Status StagedFileClient::close() {
  if (closed_) return Status::ok();
  closed_ = true;
  GL_RETURN_IF_ERROR(local_->close());
  if (dirty_) {
    remote::FileCopier copier(transport_, clock_);
    GL_RETURN_IF_ERROR(copier.push(staging_path_, server_, remote_path_));
  }
  return Status::ok();
}

std::string StagedFileClient::describe() const {
  return strings::cat("staged:", server_.to_string(), "!", remote_path_,
                      " via ", staging_path_);
}

}  // namespace griddles::core
