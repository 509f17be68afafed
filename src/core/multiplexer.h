// The File Multiplexer (paper §3, Figure 2): GriddLeS' primary
// contribution.
//
// The FM intercepts the legacy application's file operations. At every
// OPEN it consults the GriddLeS Name Service for a mapping of (host,
// path) and routes the file to one of the six IO mechanisms — local file,
// staged copy, remote proxy, replicated file, or a Grid Buffer stream —
// choosing copy-vs-proxy at run time from file size, expected access
// fraction and NWS link forecasts. Each OPEN decides independently, so
// one file of a program can be local while its neighbour is a live socket
// to a downstream model.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/common/clock.h"
#include "src/common/thread_annotations.h"
#include "src/gns/replicated.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/gridbuffer/file_client.h"
#include "src/net/transport.h"
#include "src/nws/forecast.h"
#include "src/remote/advisor.h"
#include "src/remote/copier.h"
#include "src/replica/catalog.h"
#include "src/vfs/file_client.h"

namespace griddles::core {

/// Per-mode open counters (observable routing decisions). A value
/// snapshot of this multiplexer's atomic counters; the same events also
/// feed the process-wide registry under `fm.*` (see DESIGN.md
/// "Observability").
struct FmStats {
  std::uint64_t local_opens = 0;
  std::uint64_t staged_opens = 0;       // whole-file copies (modes 2/5)
  std::uint64_t proxy_opens = 0;        // remote block access (mode 3)
  std::uint64_t replicated_opens = 0;   // catalog-resolved (modes 4/5)
  std::uint64_t buffer_opens = 0;       // grid buffer streams (mode 6)
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

class FileMultiplexer {
 public:
  struct Options {
    /// Host identity used in GNS lookups (a Table 1 machine name).
    std::string host = "localhost";
    /// Directory that anchors relative application paths.
    std::string local_root = ".";
    /// Directory for staged copies.
    std::string scratch_dir = "/tmp";
    /// The GNS client; null means every open is plain local IO.
    gns::ReplicatedNameService* gns = nullptr;
    /// Transport for the remote/buffer/replica modes.
    net::Transport* transport = nullptr;
    /// Model clock for copy timing; null uses a process-wide RealClock.
    Clock* clock = nullptr;
    /// Link forecasts for kAuto and replica selection; optional.
    nws::LinkEstimator* estimator = nullptr;
    /// Static-model estimator consulted when `estimator` is unset or
    /// fails (NWS sensor outage); see nws::FallbackLinkEstimator.
    nws::LinkEstimator* fallback_estimator = nullptr;
    /// Copy-vs-proxy policy for kAuto mappings.
    remote::AdvisorPolicy advisor;
    /// Parallel-stream options for staged copies.
    remote::FileCopier::Options copier;
    /// Hook that passes model time while a tailing reader polls a
    /// growing file (the workflow runner charges machine CPU here).
    std::function<void(Duration)> poll_wait;
    /// Poll period for tailing reads.
    Duration tail_poll_interval = std::chrono::milliseconds(200);
    /// Grid Buffer client tuning (window, flusher streams, deadlines).
    gridbuffer::GridBufferFileClient::Tuning buffer;
  };

  explicit FileMultiplexer(Options options);
  ~FileMultiplexer();

  FileMultiplexer(const FileMultiplexer&) = delete;
  FileMultiplexer& operator=(const FileMultiplexer&) = delete;

  /// Intercepted OPEN: resolves the mapping and builds the right client.
  /// Returns a descriptor (>= 3).
  Result<int> open(const std::string& path, vfs::OpenFlags flags);

  Result<std::size_t> read(int fd, MutableByteSpan out);
  Result<std::size_t> write(int fd, ByteSpan data);
  Result<std::uint64_t> seek(int fd, std::int64_t offset, vfs::Whence whence);
  Result<std::uint64_t> tell(int fd) const;
  Result<std::uint64_t> size(int fd);
  Status flush(int fd);
  Status close(int fd);

  /// Closes every open descriptor (end of the application).
  Status close_all();

  /// Diagnostic description of an open descriptor's routing.
  Result<std::string> describe(int fd) const;

  FmStats stats() const;
  const Options& options() const noexcept { return options_; }

  /// The canonical (GNS-key) form of an application path.
  std::string canonical_path(const std::string& path) const;

 private:
  /// A routed client plus the mode label its mapping resolved to
  /// ("local", "tail", "staged", "proxy", "replicated", "buffer").
  struct BuiltClient {
    std::unique_ptr<vfs::FileClient> client;
    const char* mode = "local";
  };
  /// An open descriptor: the client and its in-progress trace span.
  struct OpenFile {
    std::unique_ptr<vfs::FileClient> client;
    obs::IoSpan span;
  };
  /// This multiplexer's routing counters (atomic, lock-free); stats()
  /// snapshots them. The same increments also land in the process-wide
  /// registry so exporters see every FM instance aggregated.
  struct ModeCounters {
    obs::Counter local_opens;
    obs::Counter staged_opens;
    obs::Counter proxy_opens;
    obs::Counter replicated_opens;
    obs::Counter buffer_opens;
    obs::Counter bytes_read;
    obs::Counter bytes_written;
  };

  Result<BuiltClient> build_client(const std::string& canonical,
                                   const gns::FileMapping& mapping,
                                   vfs::OpenFlags flags);
  Result<BuiltClient> build_remote_auto(const std::string& canonical,
                                        const gns::FileMapping& mapping,
                                        vfs::OpenFlags flags);
  Result<BuiltClient> build_replicated(const std::string& canonical,
                                       const gns::FileMapping& mapping,
                                       vfs::OpenFlags flags);
  std::string staging_path_for(const std::string& canonical) const;
  Clock& clock() const;
  /// The estimator opens consult: primary chained with the static
  /// fallback when both are set, otherwise whichever one exists (null
  /// if neither).
  nws::LinkEstimator* link_estimator() const;
  /// Closes the client and emits its trace span (caller dropped it from
  /// files_ already).
  Status finish_file(OpenFile file);

  Options options_;
  std::unique_ptr<nws::FallbackLinkEstimator> estimator_chain_;
  mutable Mutex mu_;
  std::map<int, OpenFile> files_ GUARDED_BY(mu_);
  int next_fd_ GUARDED_BY(mu_) = 3;
  ModeCounters counters_;
  std::map<std::string, std::unique_ptr<replica::CatalogClient>> catalogs_
      GUARDED_BY(mu_);
};

}  // namespace griddles::core
