#include "src/remote/copier.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include <map>
#include <set>

#include "src/common/bytes.h"
#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/fault/plan.h"
#include "src/fault/retry.h"
#include "src/multicast/relay.h"
#include "src/net/rpc.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/remote/advisor.h"
#include "src/remote/protocol.h"
#include "src/vfs/local_client.h"
#include "src/xdr/codec.h"

namespace griddles::remote {

namespace {
Status errno_status(const char* op, const std::string& path) {
  return io_error(
      strings::cat(op, " ", path, ": ", strings::errno_message(errno)));
}

/// Actual whole-file copy cost; the advisor's predictions live under
/// `advisor.predicted.*` for comparison.
void record_copy(const CopyStats& stats) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& copy_bytes = registry.counter("remote.copy.bytes");
  static obs::Histogram& copy_seconds = registry.histogram(
      "remote.copy.seconds", obs::exponential_bounds(1e-3, 10.0, 8));
  copy_bytes.add(stats.bytes);
  copy_seconds.observe(stats.seconds);
}

Result<std::uint64_t> remote_size(net::RpcClient& rpc,
                                  const std::string& path) {
  xdr::Encoder enc;
  enc.put_string(path);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc.call(method_id(Method::kStat), enc.buffer()));
  xdr::Decoder dec(reply);
  GL_ASSIGN_OR_RETURN(const bool exists, dec.boolean());
  GL_ASSIGN_OR_RETURN(const std::uint64_t size, dec.u64());
  if (!exists) return not_found(strings::cat("remote file missing: ", path));
  return size;
}

/// Applies any injected copy-site fault to a chunk in flight. Truncation
/// is caught right away by the length check; corruption survives until
/// the whole-file checksum pass. Returns non-OK only for drop-style
/// injections that should fail the chunk outright.
Status apply_copy_fault(const std::string& remote_path, Buffer& data) {
  fault::Plan* plan = fault::armed();
  if (plan == nullptr) return Status::ok();
  const fault::Decision verdict =
      plan->consult(fault::Site::kCopy, remote_path, data.size());
  switch (verdict.action) {
    case fault::Decision::Action::kNone:
      return Status::ok();
    case fault::Decision::Action::kDelay:
      fault::sleep_for_model(verdict.delay);
      return Status::ok();
    case fault::Decision::Action::kTruncate:
      data = data.slice(0, data.size() / 2);
      return Status::ok();
    case fault::Decision::Action::kCorrupt: {
      // Flip the rule's byte range, clamped to this chunk, so mid-chunk
      // (non-aligned) damage exercises the whole-file checksum pass and
      // not just the per-chunk length check. The chunk may share a
      // received message, so the damage goes to a copy.
      Bytes damaged(data.begin(), data.end());
      const std::uint64_t begin =
          std::min<std::uint64_t>(verdict.corrupt_offset, damaged.size());
      const std::uint64_t end =
          std::min<std::uint64_t>(begin + verdict.corrupt_len, damaged.size());
      for (std::uint64_t i = begin; i < end; ++i) {
        damaged[static_cast<std::size_t>(i)] ^= std::byte{0xff};
      }
      data = std::move(damaged);
      return Status::ok();
    }
    case fault::Decision::Action::kFail:
    case fault::Decision::Action::kKill:
      return unavailable(
          strings::cat("injected fault: copy ", remote_path));
  }
  return Status::ok();
}

/// Converts a planned subtree rooted at tree node `index` into the
/// wire-level RelayNode carrying each host's server endpoint and write
/// target in-band.
multicast::RelayNode build_relay_node(
    const multicast::DistTree& tree, int index,
    const std::map<std::string, const MultiCopyTarget*>& targets) {
  const multicast::TreeNode& planned =
      tree.nodes[static_cast<std::size_t>(index)];
  const MultiCopyTarget& target = *targets.at(planned.host);
  multicast::RelayNode node;
  node.host = target.host;
  node.endpoint = target.endpoint.to_string();
  node.path = target.remote_path;
  node.children.reserve(planned.children.size());
  for (const int child : planned.children) {
    node.children.push_back(build_relay_node(tree, child, targets));
  }
  return node;
}

/// Encodes one kRelayChunk request: the receiver's subtree plus the block.
Buffer relay_chunk_request(const multicast::RelayNode& node,
                           std::uint64_t offset, bool truncate_to_offset,
                           ByteSpan data) {
  xdr::Encoder enc;
  multicast::encode_node(enc, node);
  enc.put_u64(offset);
  enc.put_bool(truncate_to_offset);
  return std::move(enc).finish_with_bytes(data);
}

/// A chunk failure worth re-requesting at the same offset: transient
/// transport trouble, or a verifiably short/mangled delivery. Inherits
/// RetryPolicy's deliberate exclusions — kResourceExhausted (a shed
/// response; retrying feeds the overload) and kDeadlineExceeded (the
/// budget is gone) both surface to the stage level instead.
bool chunk_retryable(ErrorCode code) {
  return fault::RetryPolicy::retryable(code) ||
         code == ErrorCode::kDataLoss;
}

/// Streaming FNV-1a of a local file (matches the server's kChecksum).
Result<std::uint64_t> local_checksum(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", path);
  std::uint64_t hash = kFnv1aSeed;
  Bytes buffer(1u << 20);
  while (true) {
    const ssize_t n = ::read(fd, buffer.data(), buffer.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return errno_status("read", path);
    }
    if (n == 0) break;
    hash = fnv1a_update(hash, {buffer.data(), static_cast<std::size_t>(n)});
  }
  ::close(fd);
  return hash;
}

/// Compares the local copy against the server's checksum; kDataLoss on
/// any divergence. Only run while a fault plan is armed, keeping the
/// fault-free path free of the extra read-back.
Status verify_transfer(net::RpcClient& rpc, const std::string& remote_path,
                       const std::string& local_path) {
  xdr::Encoder enc;
  enc.put_string(remote_path);
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc.call(method_id(Method::kChecksum), enc.buffer()));
  xdr::Decoder dec(reply);
  GL_ASSIGN_OR_RETURN(const std::uint64_t remote_hash, dec.u64());
  GL_ASSIGN_OR_RETURN(const std::uint64_t remote_bytes, dec.u64());
  GL_ASSIGN_OR_RETURN(const std::uint64_t local_bytes,
                      vfs::file_size(local_path));
  GL_ASSIGN_OR_RETURN(const std::uint64_t local_hash,
                      local_checksum(local_path));
  if (local_bytes != remote_bytes || local_hash != remote_hash) {
    return data_loss(strings::cat(
        "copy verification failed for ", remote_path, ": local ",
        local_bytes, "B/", local_hash, " vs remote ", remote_bytes, "B/",
        remote_hash));
  }
  return Status::ok();
}
}  // namespace

FileCopier::FileCopier(net::Transport& transport, Clock& clock,
                       Options options)
    : transport_(transport), clock_(clock), options_(options) {}

Result<CopyStats> FileCopier::fetch(const net::Endpoint& server,
                                    const std::string& remote_path,
                                    const std::string& local_path) {
  obs::Span copy_span(obs::SpanKind::kCopy,
                      strings::cat("copy.fetch:", remote_path));
  const Duration start = clock_.now();
  const fault::RetryPolicy policy;
  const std::uint64_t jitter_key = fnv1a(as_bytes_view(remote_path));
  std::uint64_t bytes = 0;
  int streams = 0;
  // Whole-file re-fetches become child retry spans: emplace() records
  // the previous attempt's span and opens the next (backoff + attempt).
  std::optional<obs::Span> retry_span;
  for (int attempt = 1;; ++attempt) {
    const Status status =
        fetch_attempt(server, remote_path, local_path, &bytes, &streams);
    if (status.is_ok()) break;
    // A failed verification (kDataLoss) is recoverable by re-fetching:
    // the file is still intact on the server.
    if (!chunk_retryable(status.code()) || attempt >= policy.max_attempts) {
      return status;
    }
    GL_RETURN_IF_ERROR(check_deadline("copy.fetch retry"));
    if (!fault::RetryBudget::global().acquire(jitter_key)) return status;
    fault::note_retry_attempt();
    retry_span.emplace(obs::SpanKind::kRetry,
                       strings::cat("copy.retry:", remote_path));
    retry_span->add_attr("attempt", strings::cat(attempt + 1));
    retry_span->add_attr("error", status.message());
    fault::sleep_for_model(policy.backoff(attempt, jitter_key));
  }
  const CopyStats stats{bytes, to_seconds_d(clock_.now() - start), streams};
  copy_span.add_attr("bytes", strings::cat(stats.bytes));
  copy_span.add_attr("streams", strings::cat(stats.streams_used));
  record_copy(stats);
  return stats;
}

Status FileCopier::fetch_attempt(const net::Endpoint& server,
                                 const std::string& remote_path,
                                 const std::string& local_path,
                                 std::uint64_t* bytes_out,
                                 int* streams_out) {
  net::RpcClient control(transport_, server);
  GL_ASSIGN_OR_RETURN(const std::uint64_t size,
                      remote_size(control, remote_path));

  {
    const std::filesystem::path parent =
        std::filesystem::path(local_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
  }
  const int fd = ::open(local_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd < 0) return errno_status("open", local_path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    return errno_status("ftruncate", local_path);
  }

  const std::uint64_t chunk = options_.chunk_size;
  const std::uint64_t num_chunks = size == 0 ? 0 : (size + chunk - 1) / chunk;
  const int streams = static_cast<int>(std::min<std::uint64_t>(
      std::max(1, options_.parallel_streams), std::max<std::uint64_t>(
                                                  1, num_chunks)));

  // lint: not-a-metric (work distribution)
  std::atomic<std::uint64_t> next_chunk{0};
  std::vector<Status> stream_status(static_cast<std::size_t>(streams),
                                    Status::ok());
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(streams));
  const fault::RetryPolicy policy;
  const std::uint64_t jitter_key = fnv1a(as_bytes_view(remote_path));
  // Stream workers inherit the copy span so their chunk spans (and the
  // RPC hops under them) land on this transfer's subtree; the ambient
  // end-to-end budget rides along so chunk RPCs keep the deadline.
  const obs::TraceContext trace_parent = obs::current_context();
  const std::optional<WallClock::time_point> budget = current_deadline();
  for (int s = 0; s < streams; ++s) {
    workers.emplace_back([&, s, trace_parent, budget] {
      obs::ScopedTraceContext trace_scope(trace_parent);
      ScopedDeadline deadline_scope(budget);
      net::RpcClient rpc(transport_, server);
      const auto fetch_chunk = [&](std::uint64_t offset,
                                   std::uint32_t length) -> Status {
        xdr::Encoder enc;
        enc.put_string(remote_path);
        enc.put_u64(offset);
        enc.put_u32(length);
        GL_ASSIGN_OR_RETURN(
            const Buffer reply,
            rpc.call(method_id(Method::kGetChunk), enc.buffer()));
        xdr::Decoder dec(reply);
        auto data = dec.bytes();
        if (!data.is_ok()) return data_loss("fetch: malformed chunk");
        GL_RETURN_IF_ERROR(apply_copy_fault(remote_path, *data));
        if (data->size() != length) {
          return data_loss(strings::cat("fetch ", remote_path,
                                        ": truncated chunk at offset ",
                                        offset));
        }
        std::size_t put = 0;
        while (put < data->size()) {
          const ssize_t n =
              ::pwrite(fd, data->data() + put, data->size() - put,
                       static_cast<off_t>(offset + put));
          if (n < 0) {
            if (errno == EINTR) continue;
            return errno_status("pwrite", local_path);
          }
          put += static_cast<std::size_t>(n);
        }
        return Status::ok();
      };
      while (true) {
        const std::uint64_t index = next_chunk.fetch_add(1);
        if (index >= num_chunks) return;
        const std::uint64_t offset = index * chunk;
        const std::uint32_t length = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, size - offset));
        obs::Span chunk_span(obs::SpanKind::kChunk, [&] {
          return strings::cat("chunk.fetch:", remote_path);
        });
        chunk_span.add_attr("offset", [&] { return strings::cat(offset); });
        fault::RetryBudget::global().note_fresh(jitter_key);
        // Offset-resumable: a bad chunk is simply re-requested (while
        // the budget holds out and the peer's retry tokens last).
        Status status = fetch_chunk(offset, length);
        for (int attempt = 1;
             !status.is_ok() && chunk_retryable(status.code()) &&
             !deadline_expired() && attempt < policy.max_attempts &&
             fault::RetryBudget::global().acquire(jitter_key);
             ++attempt) {
          fault::note_retry_attempt();
          fault::sleep_for_model(policy.backoff(attempt, jitter_key + index));
          status = fetch_chunk(offset, length);
        }
        if (!status.is_ok()) {
          stream_status[static_cast<std::size_t>(s)] = status;
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ::close(fd);
  for (const Status& status : stream_status) GL_RETURN_IF_ERROR(status);
  if (fault::armed() != nullptr) {
    GL_RETURN_IF_ERROR(verify_transfer(control, remote_path, local_path));
  }
  *bytes_out = size;
  *streams_out = streams;
  return Status::ok();
}

Result<CopyStats> FileCopier::push(const std::string& local_path,
                                   const net::Endpoint& server,
                                   const std::string& remote_path) {
  obs::Span copy_span(obs::SpanKind::kCopy,
                      strings::cat("copy.push:", remote_path));
  const Duration start = clock_.now();
  std::uint64_t bytes = 0;
  int streams = 0;
  GL_RETURN_IF_ERROR(
      push_with_retries(local_path, server, remote_path, &bytes, &streams));
  const CopyStats stats{bytes, to_seconds_d(clock_.now() - start), streams};
  copy_span.add_attr("bytes", strings::cat(stats.bytes));
  copy_span.add_attr("streams", strings::cat(stats.streams_used));
  record_copy(stats);
  return stats;
}

Status FileCopier::push_with_retries(const std::string& local_path,
                                     const net::Endpoint& server,
                                     const std::string& remote_path,
                                     std::uint64_t* bytes_out,
                                     int* streams_out) {
  const fault::RetryPolicy policy;
  const std::uint64_t jitter_key = fnv1a(as_bytes_view(remote_path));
  std::optional<obs::Span> retry_span;  // see fetch()
  for (int attempt = 1;; ++attempt) {
    const Status status = push_attempt(local_path, server, remote_path,
                                       bytes_out, streams_out);
    if (status.is_ok()) return status;
    if (!chunk_retryable(status.code()) || attempt >= policy.max_attempts) {
      return status;
    }
    GL_RETURN_IF_ERROR(check_deadline("copy.push retry"));
    if (!fault::RetryBudget::global().acquire(jitter_key)) return status;
    fault::note_retry_attempt();
    retry_span.emplace(obs::SpanKind::kRetry,
                       strings::cat("copy.retry:", remote_path));
    retry_span->add_attr("attempt", strings::cat(attempt + 1));
    retry_span->add_attr("error", status.message());
    fault::sleep_for_model(policy.backoff(attempt, jitter_key));
  }
}

Result<MultiCopyStats> FileCopier::copy_to_many(
    const std::string& local_path,
    const std::vector<MultiCopyTarget>& destinations,
    const multicast::TreeOptions& tree_options,
    const multicast::PairEstimator& estimator) {
  MultiCopyStats stats;
  if (destinations.empty()) return stats;

  // Exact duplicates collapse with a warning; the same host asked to
  // receive two different files is a caller bug, not a dedup case.
  static obs::Counter& duplicates =
      obs::MetricsRegistry::global().counter("multicast.duplicates");
  std::vector<MultiCopyTarget> targets;
  {
    std::map<std::string, std::size_t> index_of;
    for (const MultiCopyTarget& dest : destinations) {
      const auto it = index_of.find(dest.host);
      if (it == index_of.end()) {
        index_of.emplace(dest.host, targets.size());
        targets.push_back(dest);
        continue;
      }
      const MultiCopyTarget& prior = targets[it->second];
      if (prior.remote_path != dest.remote_path ||
          prior.endpoint.to_string() != dest.endpoint.to_string()) {
        return invalid_argument(strings::cat(
            "copy_to_many: host ", dest.host,
            " listed twice with different targets (", prior.remote_path,
            " vs ", dest.remote_path, ")"));
      }
      duplicates.add();
      GL_LOG(kWarn, "copy_to_many: duplicate destination ", dest.host, " (",
             dest.remote_path, ") deduplicated");
    }
  }

  if (targets.size() == 1) {
    // Degenerate case: behave exactly like the single copy it is — same
    // status, same spans, same one `remote.copy.*` sample.
    GL_ASSIGN_OR_RETURN(const CopyStats single,
                        push(local_path, targets.front().endpoint,
                             targets.front().remote_path));
    stats.bytes = single.bytes;
    stats.seconds = single.seconds;
    stats.destinations = 1;
    stats.source_bytes_sent = single.bytes;
    stats.tree_depth = 1;
    stats.streams_used = single.streams_used;
    return stats;
  }

  const Duration start = clock_.now();
  GL_ASSIGN_OR_RETURN(const std::uint64_t size, vfs::file_size(local_path));
  const std::string source_host = transport_.local_host();
  std::vector<std::string> hosts;
  hosts.reserve(targets.size());
  std::map<std::string, const MultiCopyTarget*> by_host;
  for (const MultiCopyTarget& target : targets) {
    hosts.push_back(target.host);
    by_host.emplace(target.host, &target);
  }
  GL_ASSIGN_OR_RETURN(
      const multicast::DistTree tree,
      multicast::plan_tree(source_host, hosts, estimator, tree_options));

  // One logical advisor decision for the whole distribution: price every
  // leg, record the bottleneck. The strategy is kCopy by construction (a
  // staged multicast IS a copy), so only the predicted cost varies.
  {
    AdvisorPolicy policy;
    policy.copy_chunk_size = options_.chunk_size;
    policy.copy_streams = options_.parallel_streams;
    Advice bottleneck;
    bool scored = false;
    if (estimator) {
      for (const MultiCopyTarget& target : targets) {
        const auto estimate = estimator(source_host, target.host);
        if (!estimate.is_ok()) continue;
        const Advice leg = advise_quiet(size, 1.0, *estimate, policy);
        if (!scored ||
            leg.copy_cost_seconds > bottleneck.copy_cost_seconds) {
          bottleneck = leg;
          scored = true;
        }
      }
    }
    if (!scored) {
      bottleneck = advise_quiet(size, 1.0, nws::LinkEstimate{}, policy);
    }
    bottleneck.strategy = RemoteStrategy::kCopy;
    record_advice(bottleneck);
  }

  // The wire subtrees the root's children receive in-band.
  std::vector<multicast::RelayNode> first_hops;
  first_hops.reserve(tree.source().children.size());
  for (const int child : tree.source().children) {
    first_hops.push_back(build_relay_node(tree, child, by_host));
  }

  obs::Span copy_span(obs::SpanKind::kCopy,
                      strings::cat("copy.multicast:", local_path));
  copy_span.add_attr("destinations", strings::cat(targets.size()));
  copy_span.add_attr("depth", strings::cat(tree.depth));

  // lint: not-a-metric (per-transfer stat reported via MultiCopyStats)
  std::atomic<std::uint64_t> source_bytes{0};
  std::set<std::string> dead_hosts;

  // Create/truncate every destination file down the tree before the
  // parallel phase — and learn which relays are already dead.
  {
    multicast::RelayForwarder forwarder(transport_);
    std::vector<std::string> dead;
    multicast::relay_block(
        forwarder, first_hops, method_id(Method::kRelayChunk),
        [&](const multicast::RelayNode& child) {
          return relay_chunk_request(child, 0, true, {});
        },
        dead);
    dead_hosts.insert(dead.begin(), dead.end());
  }

  const int fd = ::open(local_path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", local_path);
  const std::uint64_t chunk = options_.chunk_size;
  const std::uint64_t num_chunks = size == 0 ? 0 : (size + chunk - 1) / chunk;
  const int streams = static_cast<int>(std::min<std::uint64_t>(
      std::max(1, options_.parallel_streams), std::max<std::uint64_t>(
                                                  1, num_chunks)));

  // lint: not-a-metric (work distribution)
  std::atomic<std::uint64_t> next_chunk{0};
  std::vector<Status> stream_status(static_cast<std::size_t>(streams),
                                    Status::ok());
  std::vector<std::vector<std::string>> stream_dead(
      static_cast<std::size_t>(streams));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(streams));
  const obs::TraceContext trace_parent = obs::current_context();
  const std::optional<WallClock::time_point> budget = current_deadline();
  for (int s = 0; s < streams; ++s) {
    workers.emplace_back([&, s, trace_parent, budget] {
      obs::ScopedTraceContext trace_scope(trace_parent);
      ScopedDeadline deadline_scope(budget);
      // One forwarder — one connection per tree edge — per stream keeps
      // the streams parallel, as with push()'s per-stream RpcClient.
      multicast::RelayForwarder forwarder(transport_);
      Bytes buffer(chunk);
      while (true) {
        const std::uint64_t index = next_chunk.fetch_add(1);
        if (index >= num_chunks) return;
        const std::uint64_t offset = index * chunk;
        const std::size_t length = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk, size - offset));
        std::size_t got = 0;
        while (got < length) {
          const ssize_t n = ::pread(fd, buffer.data() + got, length - got,
                                    static_cast<off_t>(offset + got));
          if (n < 0) {
            if (errno == EINTR) continue;
            stream_status[static_cast<std::size_t>(s)] =
                errno_status("pread", local_path);
            return;
          }
          if (n == 0) break;
          got += static_cast<std::size_t>(n);
        }
        const ByteSpan data{buffer.data(), got};
        obs::Span chunk_span(obs::SpanKind::kChunk, [&] {
          return strings::cat("chunk.multicast:", local_path);
        });
        chunk_span.add_attr("offset", [&] { return strings::cat(offset); });
        multicast::relay_block(
            forwarder, first_hops, method_id(Method::kRelayChunk),
            [&](const multicast::RelayNode& child) {
              source_bytes.fetch_add(got, std::memory_order_relaxed);
              return relay_chunk_request(child, offset, false, data);
            },
            stream_dead[static_cast<std::size_t>(s)]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ::close(fd);
  for (const Status& status : stream_status) GL_RETURN_IF_ERROR(status);
  for (const std::vector<std::string>& dead : stream_dead) {
    dead_hosts.insert(dead.begin(), dead.end());
  }

  // Every destination a dead relay left behind gets the whole file
  // directly from the source — the tree already saved the bytes for
  // everyone else, so correctness wins over elegance here.
  for (const std::string& host : dead_hosts) {
    const auto it = by_host.find(host);
    if (it == by_host.end()) continue;
    const MultiCopyTarget& target = *it->second;
    GL_LOG(kWarn, "copy_to_many: relay path to ", host,
           " failed; repairing with a direct re-push");
    std::uint64_t repaired_bytes = 0;
    int repaired_streams = 0;
    GL_RETURN_IF_ERROR(push_with_retries(local_path, target.endpoint,
                                         target.remote_path, &repaired_bytes,
                                         &repaired_streams));
    source_bytes.fetch_add(size, std::memory_order_relaxed);
    ++stats.reparents;
  }

  // Same discipline as fetch()/push(): with a fault plan armed, every
  // destination is checksum-verified and re-pushed on divergence.
  if (fault::armed() != nullptr) {
    for (const MultiCopyTarget& target : targets) {
      net::RpcClient control(transport_, target.endpoint);
      const Status verified =
          verify_transfer(control, target.remote_path, local_path);
      if (verified.is_ok()) continue;
      std::uint64_t repaired_bytes = 0;
      int repaired_streams = 0;
      GL_RETURN_IF_ERROR(push_with_retries(local_path, target.endpoint,
                                           target.remote_path,
                                           &repaired_bytes,
                                           &repaired_streams));
      source_bytes.fetch_add(size, std::memory_order_relaxed);
      GL_RETURN_IF_ERROR(
          verify_transfer(control, target.remote_path, local_path));
    }
  }

  stats.bytes = size;
  stats.seconds = to_seconds_d(clock_.now() - start);
  stats.destinations = static_cast<int>(targets.size());
  stats.source_bytes_sent = source_bytes.load(std::memory_order_relaxed);
  stats.tree_depth = tree.depth;
  stats.streams_used = streams;
  copy_span.add_attr("bytes", strings::cat(size));
  copy_span.add_attr("source_bytes", strings::cat(stats.source_bytes_sent));
  copy_span.add_attr("reparents", strings::cat(stats.reparents));
  // ONE logical copy: one bytes/seconds sample for the whole fan-out.
  record_copy(CopyStats{size, stats.seconds, streams});
  return stats;
}

Status FileCopier::push_attempt(const std::string& local_path,
                                const net::Endpoint& server,
                                const std::string& remote_path,
                                std::uint64_t* bytes_out, int* streams_out) {
  GL_ASSIGN_OR_RETURN(const std::uint64_t size, vfs::file_size(local_path));
  const int fd = ::open(local_path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", local_path);

  // Create/truncate the destination before the parallel phase.
  net::RpcClient control(transport_, server);
  {
    xdr::Encoder enc;
    enc.put_string(remote_path);
    enc.put_u64(0);
    enc.put_bool(true);  // truncate to offset 0
    enc.put_bytes({});
    auto reply = control.call(method_id(Method::kPutChunk), enc.buffer());
    if (!reply.is_ok()) {
      ::close(fd);
      return reply.status();
    }
  }

  const std::uint64_t chunk = options_.chunk_size;
  const std::uint64_t num_chunks = size == 0 ? 0 : (size + chunk - 1) / chunk;
  const int streams = static_cast<int>(std::min<std::uint64_t>(
      std::max(1, options_.parallel_streams), std::max<std::uint64_t>(
                                                  1, num_chunks)));

  // lint: not-a-metric (work distribution)
  std::atomic<std::uint64_t> next_chunk{0};
  std::vector<Status> stream_status(static_cast<std::size_t>(streams),
                                    Status::ok());
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(streams));
  const fault::RetryPolicy policy;
  const std::uint64_t jitter_key = fnv1a(as_bytes_view(remote_path));
  const obs::TraceContext trace_parent = obs::current_context();
  const std::optional<WallClock::time_point> budget = current_deadline();
  for (int s = 0; s < streams; ++s) {
    workers.emplace_back([&, s, trace_parent, budget] {
      obs::ScopedTraceContext trace_scope(trace_parent);
      ScopedDeadline deadline_scope(budget);
      net::RpcClient rpc(transport_, server);
      const auto push_chunk = [&](std::uint64_t offset,
                                  std::size_t length) -> Status {
        // Read straight into the request's byte field.
        MutableByteSpan out;
        Buffer data = Buffer::uninitialized(length, out);
        std::size_t got = 0;
        while (got < length) {
          const ssize_t n = ::pread(fd, out.data() + got, length - got,
                                    static_cast<off_t>(offset + got));
          if (n < 0) {
            if (errno == EINTR) continue;
            return errno_status("pread", local_path);
          }
          if (n == 0) break;
          got += static_cast<std::size_t>(n);
        }
        data = data.slice(0, got);
        GL_RETURN_IF_ERROR(apply_copy_fault(remote_path, data));
        const std::size_t sent = data.size();
        xdr::Encoder enc;
        enc.put_string(remote_path);
        enc.put_u64(offset);
        enc.put_bool(false);
        GL_ASSIGN_OR_RETURN(
            const Buffer reply,
            rpc.call(method_id(Method::kPutChunk),
                     std::move(enc).finish_with_bytes(std::move(data))));
        (void)reply;
        // A mutated payload leaves a hole or garbage at this offset; the
        // post-push verification pass catches it and re-pushes.
        if (sent != got) {
          return data_loss(strings::cat("push ", remote_path,
                                        ": truncated chunk at offset ",
                                        offset));
        }
        return Status::ok();
      };
      while (true) {
        const std::uint64_t index = next_chunk.fetch_add(1);
        if (index >= num_chunks) return;
        const std::uint64_t offset = index * chunk;
        const std::size_t length = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk, size - offset));
        obs::Span chunk_span(obs::SpanKind::kChunk, [&] {
          return strings::cat("chunk.push:", remote_path);
        });
        chunk_span.add_attr("offset", [&] { return strings::cat(offset); });
        fault::RetryBudget::global().note_fresh(jitter_key);
        Status status = push_chunk(offset, length);
        for (int attempt = 1;
             !status.is_ok() && chunk_retryable(status.code()) &&
             !deadline_expired() && attempt < policy.max_attempts &&
             fault::RetryBudget::global().acquire(jitter_key);
             ++attempt) {
          fault::note_retry_attempt();
          fault::sleep_for_model(policy.backoff(attempt, jitter_key + index));
          status = push_chunk(offset, length);
        }
        if (!status.is_ok()) {
          stream_status[static_cast<std::size_t>(s)] = status;
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ::close(fd);
  for (const Status& status : stream_status) GL_RETURN_IF_ERROR(status);
  if (fault::armed() != nullptr) {
    GL_RETURN_IF_ERROR(verify_transfer(control, remote_path, local_path));
  }
  *bytes_out = size;
  *streams_out = streams;
  return Status::ok();
}

}  // namespace griddles::remote
