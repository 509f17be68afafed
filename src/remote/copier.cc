#include "src/remote/copier.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <functional>
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
#include "src/vfs/local_client.h"
#include "src/xdr/codec.h"

namespace griddles::remote {

namespace {
Status errno_status(const char* op, const std::string& path) {
  return io_error(
      strings::cat(op, " ", path, ": ", strings::errno_message(errno)));
}

/// One logical copy's `copy.*` span, timed in model time, and its one
/// `remote.copy.*` sample: the actual whole-file copy cost, where the
/// advisor's predictions live under `advisor.predicted.*` for comparison.
struct CopyRecord {
  CopyRecord(Clock& model_clock, std::string_view name)
      : clock(model_clock), span(obs::SpanKind::kCopy, name),
        start(clock.now()) {}

  /// Tags the span with what was moved and records the sample; returns
  /// `moved` timed from construction.
  CopyStats finish(CopyStats moved) {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& copy_bytes = registry.counter("remote.copy.bytes");
    static obs::Histogram& copy_seconds = registry.histogram(
        "remote.copy.seconds", obs::exponential_bounds(1e-3, 10.0, 8));
    moved.seconds = to_seconds_d(clock.now() - start);
    span.add_attr("bytes", strings::cat(moved.bytes));
    span.add_attr("streams", strings::cat(moved.streams_used));
    copy_bytes.add(moved.bytes);
    copy_seconds.observe(moved.seconds);
    return moved;
  }

  Clock& clock;
  obs::Span span;
  const Duration start;
};

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
    // Partitions and overload bursts are not copy-site faults: the plan
    // parser rejects them there.
    case fault::Decision::Action::kSever:
    case fault::Decision::Action::kBurst:
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

/// The `index`th chunk of a copy, `length` bytes at `offset`, as claimed
/// by stream `stream`.
struct Chunk {
  std::uint64_t index = 0;
  std::uint64_t offset = 0;
  std::size_t length = 0;
  int stream = 0;
};

/// Reads `chunk` of the file open at `fd`; short only at end of file.
Result<Buffer> read_chunk(int fd, const std::string& path,
                          const Chunk& chunk) {
  MutableByteSpan out;
  const Buffer data = Buffer::uninitialized(chunk.length, out);
  std::size_t got = 0;
  while (got < chunk.length) {
    const ssize_t n = ::pread(fd, out.data() + got, chunk.length - got,
                              static_cast<off_t>(chunk.offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("pread", path);
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return data.slice(0, got);
}

/// Streaming FNV-1a of a local file (matches the server's kChecksum).
Result<std::uint64_t> local_checksum(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", path);
  std::uint64_t hash = kFnv1aSeed;
  Result<Buffer> data = Buffer();
  for (Chunk block{0, 0, 1u << 20, 0};; block.offset += block.length) {
    data = read_chunk(fd, path, block);
    if (!data.is_ok() || data->empty()) break;
    hash = fnv1a_update(hash, *data);
  }
  ::close(fd);
  if (!data.is_ok()) return data.status();
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

/// How a copy of `size` bytes splits into chunks and streams: never more
/// streams than chunks, and one stream for an empty file.
struct ChunkLayout {
  ChunkLayout(std::uint64_t file_size, const FileCopier::Options& options)
      : size(file_size), chunk(options.chunk_size),
        count(size == 0 ? 0 : (size + chunk - 1) / chunk),
        streams(static_cast<int>(std::min<std::uint64_t>(
            std::max(1, options.parallel_streams),
            std::max<std::uint64_t>(1, count)))) {}

  std::uint64_t size;
  std::uint64_t chunk;
  std::uint64_t count;
  int streams;
};

/// The stream pool every copy moves its chunks through. Each of
/// `layout.streams` threads opens its own connection with `connect()`,
/// so the streams run in parallel, then claims chunks in order from a
/// shared cursor and hands each to `move(connection, chunk)` inside a
/// `chunk.<kind>:<label>` span, until no chunk is left or one of its own
/// fails. The threads inherit the caller's trace context, so chunk spans
/// (and the RPC hops under them) parent to the copy span, and its
/// deadline, so chunk RPCs keep the end-to-end budget. Returns the first
/// stream failure.
template <typename Connect, typename Move>
Status run_streams(const ChunkLayout& layout, const char* kind,
                   const std::string& label, Connect connect, Move move) {
  // lint: not-a-metric (work distribution)
  std::atomic<std::uint64_t> next_chunk{0};
  std::vector<Status> stream_status(static_cast<std::size_t>(layout.streams),
                                    Status::ok());
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(layout.streams));
  const obs::TraceContext trace_parent = obs::current_context();
  const std::optional<WallClock::time_point> budget = current_deadline();
  for (int s = 0; s < layout.streams; ++s) {
    workers.emplace_back([&, s] {
      obs::ScopedTraceContext trace_scope(trace_parent);
      ScopedDeadline deadline_scope(budget);
      auto connection = connect();
      for (std::uint64_t index = next_chunk.fetch_add(1); index < layout.count;
           index = next_chunk.fetch_add(1)) {
        const std::uint64_t offset = index * layout.chunk;
        const Chunk chunk{index, offset,
                          static_cast<std::size_t>(std::min<std::uint64_t>(
                              layout.chunk, layout.size - offset)),
                          s};
        obs::Span chunk_span(obs::SpanKind::kChunk, [&] {
          return strings::cat("chunk.", kind, ":", label);
        });
        chunk_span.add_attr("offset", [&] { return strings::cat(offset); });
        Status status = move(connection, chunk);
        if (!status.is_ok()) {
          stream_status[static_cast<std::size_t>(s)] = std::move(status);
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Status& status : stream_status) GL_RETURN_IF_ERROR(status);
  return Status::ok();
}

/// Moves one chunk of `path` with `attempt`, offset-resumably: a failed
/// chunk is simply re-requested at the same offset while the failure is
/// chunk_retryable, the deadline holds, attempts remain and the retry
/// budget grants a token.
Status resend_chunk(const std::string& path, const Chunk& chunk,
                    const std::function<Status()>& attempt) {
  const fault::RetryPolicy policy;
  const std::uint64_t jitter_key = fnv1a(as_bytes_view(path));
  fault::RetryBudget::global().note_fresh(jitter_key);
  Status status = attempt();
  for (int n = 1; !status.is_ok() && chunk_retryable(status.code()) &&
                  !deadline_expired() && n < policy.max_attempts &&
                  fault::RetryBudget::global().acquire(jitter_key);
       ++n) {
    fault::note_retry_attempt();
    fault::sleep_for_model(policy.backoff(n, jitter_key + chunk.index));
    status = attempt();
  }
  return status;
}

/// Runs whole-file attempts at copying `path` until one succeeds. A
/// failed verification (kDataLoss) is recoverable by copying again, since
/// the source is still intact; so is any chunk_retryable failure, while
/// attempts, the deadline and the retry budget last. Each re-run is a
/// `copy.retry:` child span covering its backoff and attempt.
Result<CopyStats> retry_copy(
    const char* op, const std::string& path,
    const std::function<Result<CopyStats>()>& attempt) {
  const fault::RetryPolicy policy;
  const std::uint64_t jitter_key = fnv1a(as_bytes_view(path));
  // emplace() records the previous attempt's span and opens the next.
  std::optional<obs::Span> retry_span;
  for (int n = 1;; ++n) {
    Result<CopyStats> moved = attempt();
    if (moved.is_ok()) return moved;
    const Status& status = moved.status();
    if (!chunk_retryable(status.code()) || n >= policy.max_attempts) {
      return status;
    }
    GL_RETURN_IF_ERROR(check_deadline(op));
    if (!fault::RetryBudget::global().acquire(jitter_key)) return status;
    fault::note_retry_attempt();
    retry_span.emplace(obs::SpanKind::kRetry,
                       strings::cat("copy.retry:", path));
    retry_span->add_attr("attempt", strings::cat(n + 1));
    retry_span->add_attr("error", status.message());
    fault::sleep_for_model(policy.backoff(n, jitter_key));
  }
}

/// Writes `data` into `remote_path` at `offset`, first cutting the file
/// to `offset` when `truncate_to_offset` is set.
Status put_chunk(net::RpcClient& rpc, const std::string& remote_path,
                 std::uint64_t offset, bool truncate_to_offset, Buffer data) {
  xdr::Encoder enc;
  enc.put_string(remote_path);
  enc.put_u64(offset);
  enc.put_bool(truncate_to_offset);
  return rpc
      .call(method_id(Method::kPutChunk),
            std::move(enc).finish_with_bytes(std::move(data)))
      .status();
}

/// Fetches `chunk` of `remote_path` into `fd` at its offset. A short or
/// malformed delivery is kDataLoss, so the chunk is fetched again.
Status fetch_chunk(net::RpcClient& rpc, const std::string& remote_path,
                   int fd, const std::string& local_path,
                   const Chunk& chunk) {
  xdr::Encoder enc;
  enc.put_string(remote_path);
  enc.put_u64(chunk.offset);
  enc.put_u32(static_cast<std::uint32_t>(chunk.length));
  GL_ASSIGN_OR_RETURN(const Buffer reply,
                      rpc.call(method_id(Method::kGetChunk), enc.buffer()));
  xdr::Decoder dec(reply);
  auto data = dec.bytes();
  if (!data.is_ok()) return data_loss("fetch: malformed chunk");
  GL_RETURN_IF_ERROR(apply_copy_fault(remote_path, *data));
  if (data->size() != chunk.length) {
    return data_loss(strings::cat("fetch ", remote_path,
                                  ": truncated chunk at offset ",
                                  chunk.offset));
  }
  std::size_t put = 0;
  while (put < data->size()) {
    const ssize_t n = ::pwrite(fd, data->data() + put, data->size() - put,
                               static_cast<off_t>(chunk.offset + put));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("pwrite", local_path);
    }
    put += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

/// Pushes `chunk` of the file open at `fd` to `remote_path`. A chunk an
/// injected fault cut short is kDataLoss, so it is pushed again.
Status push_chunk(net::RpcClient& rpc, int fd, const std::string& local_path,
                  const std::string& remote_path, const Chunk& chunk) {
  // Read straight into the request's byte field.
  GL_ASSIGN_OR_RETURN(Buffer data, read_chunk(fd, local_path, chunk));
  const std::size_t got = data.size();
  GL_RETURN_IF_ERROR(apply_copy_fault(remote_path, data));
  const std::size_t sent = data.size();
  GL_RETURN_IF_ERROR(
      put_chunk(rpc, remote_path, chunk.offset, false, std::move(data)));
  // A mutated payload leaves a hole or garbage at this offset; the
  // post-push verification pass catches it and re-pushes.
  if (sent != got) {
    return data_loss(strings::cat("push ", remote_path,
                                  ": truncated chunk at offset ",
                                  chunk.offset));
  }
  return Status::ok();
}

/// One whole-file fetch; the stats carry no time.
Result<CopyStats> fetch_attempt(net::Transport& transport,
                                const FileCopier::Options& options,
                                const net::Endpoint& server,
                                const std::string& remote_path,
                                const std::string& local_path) {
  net::RpcClient control(transport, server);
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
  const ChunkLayout layout(size, options);
  const Status moved = run_streams(
      layout, "fetch", remote_path,
      [&] { return net::RpcClient(transport, server); },
      [&](net::RpcClient& rpc, const Chunk& chunk) {
        return resend_chunk(remote_path, chunk, [&] {
          return fetch_chunk(rpc, remote_path, fd, local_path, chunk);
        });
      });
  ::close(fd);
  GL_RETURN_IF_ERROR(moved);
  if (fault::armed() != nullptr) {
    GL_RETURN_IF_ERROR(verify_transfer(control, remote_path, local_path));
  }
  return CopyStats{size, 0, layout.streams};
}

/// One whole-file push; the stats carry no time.
Result<CopyStats> push_attempt(net::Transport& transport,
                               const FileCopier::Options& options,
                               const std::string& local_path,
                               const net::Endpoint& server,
                               const std::string& remote_path) {
  GL_ASSIGN_OR_RETURN(const std::uint64_t size, vfs::file_size(local_path));
  const int fd = ::open(local_path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", local_path);
  // Create/truncate the destination before the parallel phase.
  net::RpcClient control(transport, server);
  const ChunkLayout layout(size, options);
  Status moved = put_chunk(control, remote_path, 0, true, Buffer());
  if (moved.is_ok()) {
    moved = run_streams(
        layout, "push", remote_path,
        [&] { return net::RpcClient(transport, server); },
        [&](net::RpcClient& rpc, const Chunk& chunk) {
          return resend_chunk(remote_path, chunk, [&] {
            return push_chunk(rpc, fd, local_path, remote_path, chunk);
          });
        });
  }
  ::close(fd);
  GL_RETURN_IF_ERROR(moved);
  if (fault::armed() != nullptr) {
    GL_RETURN_IF_ERROR(verify_transfer(control, remote_path, local_path));
  }
  return CopyStats{size, 0, layout.streams};
}

/// push() without the copy span or metrics — shared with copy_to_many's
/// dead-host repair path, which must not double-count `remote.copy.*`
/// for the same logical transfer.
Result<CopyStats> push_with_retries(net::Transport& transport,
                                    const FileCopier::Options& options,
                                    const std::string& local_path,
                                    const net::Endpoint& server,
                                    const std::string& remote_path) {
  return retry_copy("copy.push retry", remote_path, [&] {
    return push_attempt(transport, options, local_path, server, remote_path);
  });
}
}  // namespace

FileCopier::FileCopier(net::Transport& transport, Clock& clock,
                       Options options)
    : transport_(transport), clock_(clock), options_(options) {}

Result<CopyStats> FileCopier::fetch(const net::Endpoint& server,
                                    const std::string& remote_path,
                                    const std::string& local_path) {
  CopyRecord copy(clock_, strings::cat("copy.fetch:", remote_path));
  GL_ASSIGN_OR_RETURN(const CopyStats moved,
                      retry_copy("copy.fetch retry", remote_path, [&] {
                        return fetch_attempt(transport_, options_, server,
                                             remote_path, local_path);
                      }));
  return copy.finish(moved);
}

Result<CopyStats> FileCopier::push(const std::string& local_path,
                                   const net::Endpoint& server,
                                   const std::string& remote_path) {
  CopyRecord copy(clock_, strings::cat("copy.push:", remote_path));
  GL_ASSIGN_OR_RETURN(const CopyStats moved,
                      push_with_retries(transport_, options_, local_path,
                                        server, remote_path));
  return copy.finish(moved);
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

  CopyRecord copy(clock_, strings::cat("copy.multicast:", local_path));
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
    const AdvisorPolicy policy;
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

  copy.span.add_attr("destinations", strings::cat(targets.size()));
  copy.span.add_attr("depth", strings::cat(tree.depth));

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

  // A relay stream's connection is a forwarder: one connection per tree
  // edge. Relays report dead hosts instead of failing a chunk, so relay
  // chunks are not resent and do not consult the copy fault site.
  const ChunkLayout layout(size, options_);
  std::vector<std::vector<std::string>> stream_dead(
      static_cast<std::size_t>(layout.streams));
  const int fd = ::open(local_path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", local_path);
  const Status moved = run_streams(
      layout, "multicast", local_path,
      [&] { return multicast::RelayForwarder(transport_); },
      [&](multicast::RelayForwarder& forwarder, const Chunk& chunk) -> Status {
        GL_ASSIGN_OR_RETURN(const Buffer data,
                            read_chunk(fd, local_path, chunk));
        multicast::relay_block(
            forwarder, first_hops, method_id(Method::kRelayChunk),
            [&](const multicast::RelayNode& child) {
              source_bytes.fetch_add(data.size(), std::memory_order_relaxed);
              return relay_chunk_request(child, chunk.offset, false, data);
            },
            stream_dead[static_cast<std::size_t>(chunk.stream)]);
        return Status::ok();
      });
  ::close(fd);
  GL_RETURN_IF_ERROR(moved);
  for (const std::vector<std::string>& dead : stream_dead) {
    dead_hosts.insert(dead.begin(), dead.end());
  }

  // Every destination a dead relay left behind gets the whole file
  // directly from the source — the tree already saved the bytes for
  // everyone else, so correctness wins over elegance here. As in
  // fetch()/push(), with a fault plan armed every other destination is
  // checksum-verified and re-pushed on divergence; the re-push verifies
  // its own result.
  for (const MultiCopyTarget& target : targets) {
    if (dead_hosts.count(target.host) != 0) {
      GL_LOG(kWarn, "copy_to_many: relay path to ", target.host,
             " failed; repairing with a direct re-push");
      ++stats.reparents;
    } else if (fault::armed() == nullptr) {
      continue;
    } else {
      net::RpcClient control(transport_, target.endpoint);
      if (verify_transfer(control, target.remote_path, local_path).is_ok()) {
        continue;
      }
    }
    GL_RETURN_IF_ERROR(push_with_retries(transport_, options_, local_path,
                                         target.endpoint,
                                         target.remote_path));
    source_bytes.fetch_add(size, std::memory_order_relaxed);
  }

  stats.bytes = size;
  stats.destinations = static_cast<int>(targets.size());
  stats.source_bytes_sent = source_bytes.load(std::memory_order_relaxed);
  stats.tree_depth = tree.depth;
  stats.streams_used = layout.streams;
  copy.span.add_attr("source_bytes", strings::cat(stats.source_bytes_sent));
  copy.span.add_attr("reparents", strings::cat(stats.reparents));
  // ONE logical copy: one bytes/seconds sample for the whole fan-out.
  stats.seconds = copy.finish(CopyStats{size, 0, layout.streams}).seconds;
  return stats;
}

}  // namespace griddles::remote
