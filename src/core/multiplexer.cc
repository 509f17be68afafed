#include "src/core/multiplexer.h"

#include <filesystem>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/core/staged_client.h"
#include "src/core/tailing_client.h"
#include "src/core/transcode_client.h"
#include "src/gridbuffer/file_client.h"
#include "src/obs/export.h"
#include "src/remote/advisor.h"
#include "src/remote/remote_client.h"
#include "src/replica/replicated_client.h"
#include "src/vfs/local_client.h"

namespace griddles::core {

namespace {
Result<net::Endpoint> parse_endpoint(const std::string& text,
                                     const char* what) {
  if (text.empty()) {
    return invalid_argument(
        strings::cat("mapping is missing its ", what, " endpoint"));
  }
  return net::Endpoint::parse(text);
}

/// Process-wide FM metrics (handles cached once; increments lock-free).
struct FmMetrics {
  obs::Counter& open_local;
  obs::Counter& open_staged;
  obs::Counter& open_proxy;
  obs::Counter& open_replicated;
  obs::Counter& open_buffer;
  obs::Counter& bytes_read;
  obs::Counter& bytes_written;
  obs::Histogram& open_latency_s;  // wall time of the OPEN decision+build

  static FmMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static FmMetrics metrics{
        registry.counter("fm.open.local"),
        registry.counter("fm.open.staged"),
        registry.counter("fm.open.proxy"),
        registry.counter("fm.open.replicated"),
        registry.counter("fm.open.buffer"),
        registry.counter("fm.bytes.read"),
        registry.counter("fm.bytes.written"),
        registry.histogram("fm.open.latency_s",
                           obs::exponential_bounds(1e-5, 10.0, 7)),
    };
    return metrics;
  }
};
}  // namespace

FileMultiplexer::FileMultiplexer(Options options)
    : options_(std::move(options)) {
  if (options_.estimator != nullptr &&
      options_.fallback_estimator != nullptr) {
    estimator_chain_ = std::make_unique<nws::FallbackLinkEstimator>(
        *options_.estimator, *options_.fallback_estimator);
  }
}

nws::LinkEstimator* FileMultiplexer::link_estimator() const {
  if (estimator_chain_) return estimator_chain_.get();
  if (options_.estimator != nullptr) return options_.estimator;
  return options_.fallback_estimator;
}

FileMultiplexer::~FileMultiplexer() {
  if (const Status s = close_all(); !s.is_ok()) {
    GL_LOG(kWarn, "file multiplexer close_all on destruct: ", s);
  }
}

Clock& FileMultiplexer::clock() const {
  if (options_.clock != nullptr) return *options_.clock;
  static RealClock real_clock;
  return real_clock;
}

std::string FileMultiplexer::canonical_path(const std::string& path) const {
  // The GNS matches "the full path name of the file in the OPEN call":
  // relative names are anchored at the application's working root.
  if (!path.empty() && path.front() == '/') return path;
  return (std::filesystem::path(options_.local_root) / path)
      .lexically_normal()
      .string();
}

std::string FileMultiplexer::staging_path_for(
    const std::string& canonical) const {
  return (std::filesystem::path(options_.scratch_dir) /
          strings::cat("stage-", std::hex, fnv1a(as_bytes_view(canonical))))
      .string();
}

Result<int> FileMultiplexer::open(const std::string& path,
                                  vfs::OpenFlags flags) {
  if (!flags.read && !flags.write) {
    return invalid_argument("open selects neither read nor write");
  }
  const WallClock::time_point decision_start = WallClock::now();
  const std::string canonical = canonical_path(path);
  obs::Span open_span(obs::SpanKind::kOpen,
                      [&] { return strings::cat("open:", canonical); });

  gns::FileMapping mapping;  // defaults to plain local IO
  if (options_.gns != nullptr) {
    GL_ASSIGN_OR_RETURN(const std::optional<gns::FileMapping> found,
                        options_.gns->lookup(options_.host, canonical));
    if (found) mapping = *found;
  }

  GL_ASSIGN_OR_RETURN(BuiltClient built,
                      build_client(canonical, mapping, flags));

  // Heterogeneity: a record schema on the mapping inserts the XDR-style
  // transcoder (paper §3.3).
  if (!mapping.record_schema.empty()) {
    GL_ASSIGN_OR_RETURN(const xdr::RecordSchema schema,
                        xdr::RecordSchema::parse(mapping.record_schema));
    GL_ASSIGN_OR_RETURN(built.client, RecordTranscodingClient::wrap(
                                          std::move(built.client), schema));
  }
  FmMetrics::get().open_latency_s.observe(
      to_seconds_d(WallClock::now() - decision_start));

  open_span.add_attr("host", options_.host);
  open_span.add_attr("mode", built.mode);
  open_span.end();  // the file span is the caller's child, not the open's

  OpenFile file;
  file.client = std::move(built.client);
  file.span = obs::Span::detached(
      obs::SpanKind::kFile, [&] { return strings::cat("file:", canonical); });
  if (file.span != nullptr) {
    file.span->add_attr("host", options_.host);
    file.span->add_attr("mode", built.mode);
  }

  MutexLock lock(mu_);
  const int fd = next_fd_++;
  GL_LOG(kDebug, "fm open host=", options_.host, " path=", canonical,
         " -> fd ", fd, " [", file.client->describe(), "]");
  files_[fd] = std::move(file);
  return fd;
}

Result<FileMultiplexer::BuiltClient> FileMultiplexer::build_client(
    const std::string& canonical, const gns::FileMapping& mapping,
    vfs::OpenFlags flags) {
  switch (mapping.mode) {
    case gns::IoMode::kLocal: {
      const std::string& target =
          mapping.local_path.empty() ? canonical : mapping.local_path;
      if (mapping.tail && flags.read && !flags.write) {
        GL_ASSIGN_OR_RETURN(
            auto tailing,
            TailingLocalFileClient::open(target, clock(),
                                         options_.poll_wait,
                                         options_.tail_poll_interval));
        counters_.local_opens.add();
        FmMetrics::get().open_local.add();
        return BuiltClient{std::move(tailing), "tail"};
      }
      GL_ASSIGN_OR_RETURN(auto local,
                          vfs::LocalFileClient::open(target, flags));
      counters_.local_opens.add();
      FmMetrics::get().open_local.add();
      return BuiltClient{std::move(local), "local"};
    }

    case gns::IoMode::kGridBuffer: {
      if (options_.transport == nullptr) {
        return failed_precondition(
            "grid buffer mapping but the FM has no transport");
      }
      GL_ASSIGN_OR_RETURN(
          const net::Endpoint server,
          parse_endpoint(mapping.buffer_endpoint, "grid buffer"));
      const std::string channel =
          mapping.channel.empty() ? canonical : mapping.channel;
      gridbuffer::ChannelConfig config;
      config.block_size = mapping.block_size;
      config.cache_enabled = mapping.cache_enabled;
      config.expected_readers = mapping.reader_count;
      GL_ASSIGN_OR_RETURN(
          auto client,
          gridbuffer::GridBufferFileClient::open(
              *options_.transport, server, channel, flags, config,
              options_.buffer));
      counters_.buffer_opens.add();
      FmMetrics::get().open_buffer.add();
      return BuiltClient{std::move(client), "buffer"};
    }

    case gns::IoMode::kRemoteProxy: {
      if (options_.transport == nullptr) {
        return failed_precondition(
            "remote mapping but the FM has no transport");
      }
      GL_ASSIGN_OR_RETURN(const net::Endpoint server,
                          parse_endpoint(mapping.remote_endpoint, "remote"));
      GL_ASSIGN_OR_RETURN(
          auto client,
          remote::RemoteFileClient::open(*options_.transport, server,
                                         mapping.remote_path, flags));
      counters_.proxy_opens.add();
      FmMetrics::get().open_proxy.add();
      return BuiltClient{std::move(client), "proxy"};
    }

    case gns::IoMode::kRemoteCopy: {
      if (options_.transport == nullptr) {
        return failed_precondition(
            "remote mapping but the FM has no transport");
      }
      GL_ASSIGN_OR_RETURN(const net::Endpoint server,
                          parse_endpoint(mapping.remote_endpoint, "remote"));
      const std::string staging = mapping.local_path.empty()
                                      ? staging_path_for(canonical)
                                      : mapping.local_path;
      GL_ASSIGN_OR_RETURN(
          auto client,
          StagedFileClient::open(*options_.transport, clock(), server,
                                 mapping.remote_path, staging, flags));
      counters_.staged_opens.add();
      FmMetrics::get().open_staged.add();
      return BuiltClient{std::move(client), "staged"};
    }

    case gns::IoMode::kAuto:
      return build_remote_auto(canonical, mapping, flags);

    case gns::IoMode::kReplicated:
      return build_replicated(canonical, mapping, flags);
  }
  return internal_error("unhandled io mode");
}

Result<FileMultiplexer::BuiltClient> FileMultiplexer::build_remote_auto(
    const std::string& canonical, const gns::FileMapping& mapping,
    vfs::OpenFlags flags) {
  if (options_.transport == nullptr) {
    return failed_precondition("auto mapping but the FM has no transport");
  }
  GL_ASSIGN_OR_RETURN(const net::Endpoint server,
                      parse_endpoint(mapping.remote_endpoint, "remote"));

  // Writable opens stage (the copy-out discipline); the advisor only
  // arbitrates reads.
  remote::RemoteStrategy strategy = remote::RemoteStrategy::kCopy;
  if (!flags.write) {
    // Ask the server for the size, then cost both plans.
    std::uint64_t file_size = 0;
    {
      net::RpcClient stat_rpc(*options_.transport, server);
      xdr::Encoder enc;
      enc.put_string(mapping.remote_path);
      GL_ASSIGN_OR_RETURN(
          const Buffer reply,
          stat_rpc.call(remote::method_id(remote::Method::kStat),
                        enc.buffer()));
      xdr::Decoder dec(reply);
      GL_ASSIGN_OR_RETURN(const bool exists, dec.boolean());
      GL_ASSIGN_OR_RETURN(file_size, dec.u64());
      if (!exists) {
        return not_found(
            strings::cat("remote file missing: ", mapping.remote_path));
      }
    }
    nws::LinkEstimate link{0.05, 1e6};  // conservative default
    if (nws::LinkEstimator* estimator = link_estimator();
        estimator != nullptr) {
      if (auto estimate = estimator->estimate(server.host);
          estimate.is_ok()) {
        link = *estimate;
      }
    }
    const remote::Advice advice =
        remote::advise(file_size, mapping.access_fraction, link);
    strategy = advice.strategy;
    GL_LOG(kDebug, "fm auto ", canonical, ": copy=",
           advice.copy_cost_seconds, "s proxy=", advice.proxy_cost_seconds,
           "s -> ",
           strategy == remote::RemoteStrategy::kCopy ? "copy" : "proxy");
  }

  gns::FileMapping resolved = mapping;
  resolved.mode = strategy == remote::RemoteStrategy::kCopy
                      ? gns::IoMode::kRemoteCopy
                      : gns::IoMode::kRemoteProxy;
  return build_client(canonical, resolved, flags);
}

Result<FileMultiplexer::BuiltClient> FileMultiplexer::build_replicated(
    const std::string& canonical, const gns::FileMapping& mapping,
    vfs::OpenFlags flags) {
  if (options_.transport == nullptr) {
    return failed_precondition(
        "replicated mapping but the FM has no transport");
  }
  if (flags.write) {
    return permission_denied(
        strings::cat(canonical, " is replicated and therefore read-only"));
  }
  nws::LinkEstimator* estimator = link_estimator();
  if (estimator == nullptr) {
    return failed_precondition(
        "replicated mapping needs a link estimator (NWS)");
  }
  GL_ASSIGN_OR_RETURN(
      const net::Endpoint catalog_endpoint,
      parse_endpoint(mapping.catalog_endpoint, "replica catalog"));
  const std::string logical =
      mapping.logical_name.empty() ? canonical : mapping.logical_name;

  replica::CatalogClient* catalog;
  {
    MutexLock lock(mu_);
    auto& slot = catalogs_[catalog_endpoint.to_string()];
    if (!slot) {
      slot = std::make_unique<replica::CatalogClient>(*options_.transport,
                                                      catalog_endpoint);
    }
    catalog = slot.get();
  }

  GL_ASSIGN_OR_RETURN(
      auto client,
      replica::ReplicatedFileClient::open(*options_.transport, *catalog,
                                          logical, *estimator));
  counters_.replicated_opens.add();
  FmMetrics::get().open_replicated.add();
  return BuiltClient{std::move(client), "replicated"};
}

Result<std::size_t> FileMultiplexer::read(int fd, MutableByteSpan out) {
  vfs::FileClient* file;
  {
    MutexLock lock(mu_);
    const auto it = files_.find(fd);
    if (it == files_.end()) {
      return invalid_argument(strings::cat("bad descriptor ", fd));
    }
    file = it->second.client.get();
  }
  const bool tracing = obs::SpanCollector::global().enabled();
  const WallClock::time_point start =
      tracing ? WallClock::now() : WallClock::time_point{};
  auto got = file->read(out);
  if (got.is_ok()) {
    counters_.bytes_read.add(*got);
    FmMetrics::get().bytes_read.add(*got);
    if (tracing) {
      const double waited = to_seconds_d(WallClock::now() - start);
      MutexLock lock(mu_);
      const auto it = files_.find(fd);
      if (it != files_.end()) {
        it->second.reads += 1;
        it->second.bytes_read += *got;
        it->second.read_wait_s += waited;
      }
    }
  } else if (tracing && (got.status().code() == ErrorCode::kUnavailable ||
                         got.status().code() == ErrorCode::kDataLoss)) {
    MutexLock lock(mu_);
    const auto it = files_.find(fd);
    if (it != files_.end()) it->second.faults += 1;
  }
  return got;
}

Result<std::size_t> FileMultiplexer::write(int fd, ByteSpan data) {
  vfs::FileClient* file;
  {
    MutexLock lock(mu_);
    const auto it = files_.find(fd);
    if (it == files_.end()) {
      return invalid_argument(strings::cat("bad descriptor ", fd));
    }
    file = it->second.client.get();
  }
  const bool tracing = obs::SpanCollector::global().enabled();
  auto put = file->write(data);
  if (put.is_ok()) {
    counters_.bytes_written.add(*put);
    FmMetrics::get().bytes_written.add(*put);
    if (tracing) {
      MutexLock lock(mu_);
      const auto it = files_.find(fd);
      if (it != files_.end()) {
        it->second.writes += 1;
        it->second.bytes_written += *put;
      }
    }
  } else if (tracing && (put.status().code() == ErrorCode::kUnavailable ||
                         put.status().code() == ErrorCode::kDataLoss)) {
    MutexLock lock(mu_);
    const auto it = files_.find(fd);
    if (it != files_.end()) it->second.faults += 1;
  }
  return put;
}

Result<std::uint64_t> FileMultiplexer::seek(int fd, std::int64_t offset,
                                            vfs::Whence whence) {
  MutexLock lock(mu_);
  const auto it = files_.find(fd);
  if (it == files_.end()) {
    return invalid_argument(strings::cat("bad descriptor ", fd));
  }
  vfs::FileClient* file = it->second.client.get();
  it->second.seeks += 1;
  lock.unlock();  // seeks on buffer streams can block awaiting EOF
  return file->seek(offset, whence);
}

Result<std::uint64_t> FileMultiplexer::tell(int fd) const {
  MutexLock lock(mu_);
  const auto it = files_.find(fd);
  if (it == files_.end()) {
    return invalid_argument(strings::cat("bad descriptor ", fd));
  }
  return it->second.client->tell();
}

Result<std::uint64_t> FileMultiplexer::size(int fd) {
  MutexLock lock(mu_);
  const auto it = files_.find(fd);
  if (it == files_.end()) {
    return invalid_argument(strings::cat("bad descriptor ", fd));
  }
  vfs::FileClient* file = it->second.client.get();
  lock.unlock();  // stream sizes block until the writer closes
  return file->size();
}

Status FileMultiplexer::flush(int fd) {
  MutexLock lock(mu_);
  const auto it = files_.find(fd);
  if (it == files_.end()) {
    return invalid_argument(strings::cat("bad descriptor ", fd));
  }
  vfs::FileClient* file = it->second.client.get();
  lock.unlock();
  return file->flush();
}

Status FileMultiplexer::finish_file(OpenFile file) {
  // Closing outside the lock: staged files copy back, buffers drain.
  const Status closed = file.client->close();
  if (file.span != nullptr) {
    obs::Span& span = *file.span;
    span.add_attr("bytes_read", std::to_string(file.bytes_read));
    span.add_attr("bytes_written", std::to_string(file.bytes_written));
    span.add_attr("reads", std::to_string(file.reads));
    span.add_attr("writes", std::to_string(file.writes));
    span.add_attr("seeks", std::to_string(file.seeks));
    span.add_attr("read_wait_s", obs::json_number(file.read_wait_s));
    span.add_attr("faults", std::to_string(file.faults));
    span.end();
  }
  return closed;
}

Status FileMultiplexer::close(int fd) {
  OpenFile file;
  {
    MutexLock lock(mu_);
    const auto it = files_.find(fd);
    if (it == files_.end()) {
      return invalid_argument(strings::cat("bad descriptor ", fd));
    }
    file = std::move(it->second);
    files_.erase(it);
  }
  return finish_file(std::move(file));
}

Status FileMultiplexer::close_all() {
  std::map<int, OpenFile> files;
  {
    MutexLock lock(mu_);
    files = std::move(files_);
    files_.clear();
  }
  Status first_error = Status::ok();
  for (auto& [fd, file] : files) {
    if (const Status s = finish_file(std::move(file));
        !s.is_ok() && first_error.is_ok()) {
      first_error = s;
    }
  }
  return first_error;
}

Result<std::string> FileMultiplexer::describe(int fd) const {
  MutexLock lock(mu_);
  const auto it = files_.find(fd);
  if (it == files_.end()) {
    return invalid_argument(strings::cat("bad descriptor ", fd));
  }
  return it->second.client->describe();
}

FmStats FileMultiplexer::stats() const {
  FmStats stats;
  stats.local_opens = counters_.local_opens.value();
  stats.staged_opens = counters_.staged_opens.value();
  stats.proxy_opens = counters_.proxy_opens.value();
  stats.replicated_opens = counters_.replicated_opens.value();
  stats.buffer_opens = counters_.buffer_opens.value();
  stats.bytes_read = counters_.bytes_read.value();
  stats.bytes_written = counters_.bytes_written.value();
  return stats;
}

}  // namespace griddles::core
