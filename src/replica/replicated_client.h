// Replica selection and the dynamically-remapping replicated file client
// (paper §3.1: "if a file is opened in read-only mode, then the FM can
// actually change the mapping dynamically during the execution, allowing
// it to adapt to changing network conditions").
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/nws/forecast.h"
#include "src/remote/remote_client.h"
#include "src/replica/catalog.h"
#include "src/vfs/file_client.h"

namespace griddles::replica {

/// Picks the cheapest replica under the given link estimates. Replicas
/// without an estimate are costed pessimistically but remain eligible
/// (better an unknown copy than no copy).
struct Selection {
  PhysicalReplica replica;
  double cost_seconds = 0;
};

Result<Selection> select_replica(const std::vector<PhysicalReplica>& copies,
                                 nws::LinkEstimator& estimator);

/// A read-only FileClient over a replicated logical file. Every
/// `reselect_interval_bytes` of consumed data it re-runs replica
/// selection; if a different copy is now cheaper by `switch_margin`, it
/// reopens there at the same cursor — invisible to the application.
class ReplicatedFileClient final : public vfs::FileClient {
 public:
  struct Options {
    std::uint64_t reselect_interval_bytes = 4u << 20;
    double switch_margin = 1.25;  // new cost must beat current by 25%
    remote::RemoteFileClient::Options remote;
  };

  static Result<std::unique_ptr<ReplicatedFileClient>> open(
      net::Transport& transport, CatalogClient& catalog,
      const std::string& logical_name, nws::LinkEstimator& estimator,
      Options options);
  static Result<std::unique_ptr<ReplicatedFileClient>> open(
      net::Transport& transport, CatalogClient& catalog,
      const std::string& logical_name, nws::LinkEstimator& estimator) {
    return open(transport, catalog, logical_name, estimator, Options{});
  }

  Result<std::size_t> read(MutableByteSpan out) override;
  Result<std::size_t> write(ByteSpan data) override;
  Result<std::uint64_t> seek(std::int64_t offset, vfs::Whence whence) override;
  std::uint64_t tell() const override;
  Result<std::uint64_t> size() override;
  Status flush() override;
  Status close() override;
  std::string describe() const override;

  /// Host currently being read from (for tests and the example).
  const std::string& current_host() const noexcept {
    return current_.host;
  }
  /// How many times the source replica changed mid-read.
  int switch_count() const noexcept { return switch_count_; }

 private:
  ReplicatedFileClient(net::Transport& transport,
                       std::string logical_name,
                       nws::LinkEstimator& estimator, Options options,
                       std::vector<PhysicalReplica> copies);

  /// Reopens `replica` at the current cursor.
  Status attach(const PhysicalReplica& replica);
  /// Attaches to the cheapest copy not on `failed_host` and runs `use`
  /// on it; a host whose attach or `use` fails is dropped and the next
  /// cheapest tried. Returns the last failure once no host is left. A
  /// non-empty `failed_host` makes this a failover, which is counted.
  Status attach_cheapest(const std::string& failed_host,
                         const std::function<Status()>& use);
  /// Re-runs selection if due; may switch sources.
  void maybe_reselect();

  net::Transport& transport_;
  std::string logical_name_;
  nws::LinkEstimator& estimator_;
  Options options_;
  std::vector<PhysicalReplica> copies_;

  PhysicalReplica current_;
  std::unique_ptr<remote::RemoteFileClient> source_;
  std::uint64_t bytes_since_reselect_ = 0;
  int switch_count_ = 0;
};

}  // namespace griddles::replica
