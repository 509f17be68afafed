// WorkflowRunner: executes a workflow on the modelled testbed under one
// of the paper's coupling disciplines.
//
//   kSequentialFiles — stages run one after another, conventional local
//       files (Table 2 exp 1; Table 3). Cross-machine edges are staged
//       with a GridFTP-style copy between stages and the copy time is
//       reported (Table 5 "Files" + "File Copy" rows; Table 2 would use
//       this had its stages been distributed with files).
//   kConcurrentFiles — every stage launched at once on one machine, edge
//       files tail-read with poll-and-retry (Table 4 "With Files").
//   kGridBuffers — every stage launched at once, edges mapped to Grid
//       Buffer channels with the buffer server at the reader's end
//       (Table 2 exps 2-3; Table 4 "Buffers"; Table 5 "Buffers").
//
// Switching discipline changes ONLY the GNS rules the runner installs —
// the application kernels are bit-identical across modes, which is the
// paper's headline claim.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/multiplexer.h"
#include "src/gridbuffer/server.h"
#include "src/remote/file_server.h"
#include "src/testbed/testbed.h"
#include "src/workflow/spec.h"

namespace griddles::workflow {

enum class CouplingMode {
  kSequentialFiles,
  kConcurrentFiles,
  kGridBuffers,
};

std::string_view coupling_mode_name(CouplingMode mode) noexcept;

struct TaskResult {
  std::string name;
  std::string machine;
  double started_s = 0;
  double finished_s = 0;  // cumulative, from workflow start
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

struct CopyResult {
  std::string path;
  std::string from;
  std::string to;
  double finished_s = 0;  // cumulative time when this copy completed
  double seconds = 0;
};

struct WorkflowReport {
  std::vector<TaskResult> tasks;   // in completion order
  std::vector<CopyResult> copies;  // staged copies (sequential mode)
  double total_seconds = 0;

  const TaskResult* task(const std::string& name) const;
};

class WorkflowRunner {
 public:
  struct Options {
    CouplingMode mode = CouplingMode::kSequentialFiles;
    /// CPU share a tailing reader burns while polling (kConcurrentFiles).
    double poll_duty = 0.25;
    Duration poll_interval = std::chrono::milliseconds(500);
    /// Grid Buffer channel parameters.
    std::uint32_t buffer_block = 4096;
    bool buffer_cache = true;
    /// Block size override for low-latency (same-site) edges; 0 keeps
    /// buffer_block. Byte-scaled benches shrink buffer_block to keep WAN
    /// streams latency-faithful, which makes loopback edges needlessly
    /// RPC-bound — a larger block there changes no modelled time.
    std::uint32_t buffer_block_fast_link = 0;
    /// One-way latency below which an edge counts as "fast" (seconds).
    double fast_link_latency_s = 0.005;
    /// Grid Buffer writer credit in blocks (DESIGN.md §16): each of the
    /// flusher_threads senders carries runs of up to
    /// writer_window / flusher_threads whole blocks per kWrite, so WAN
    /// throughput is bounded by ~writer_window*block/RTT. The default
    /// sends 16-block runs over 4 senders; writer_window ==
    /// flusher_threads is the paper's latency-sensitive stream (in-flight
    /// blocks ~= flusher_threads, ~threads*block/RTT).
    std::size_t writer_window = 64;
    int flusher_threads = 4;
    /// Parallel streams for staged copies.
    int copy_streams = 4;
    std::uint32_t copy_chunk = 1u << 20;
    /// Relay fanout for multicast distribution (DESIGN.md §12): when a
    /// stage output feeds 2+ cross-machine consumers, staged copies go
    /// through a bounded-fanout spanning tree (and grid-buffer edges
    /// with 2+ consumer machines become broadcast channels) instead of
    /// N point-to-point transfers. 0 disables multicast entirely.
    int multicast_fanout = 4;
    /// Fail a stuck run after this much wall time per buffer read.
    std::uint64_t read_deadline_ms = 120000;
    /// End-to-end deadline for the whole run, in *model* seconds
    /// (0 = none). Installed as the ambient budget (src/common/deadline.h)
    /// for every stage, copy, and nested RPC hop: expired work is
    /// rejected with kDeadlineExceeded instead of executing late.
    double deadline_s = 0;
    /// GNS replication factor: this many multi-master replica nodes
    /// (each owning its own store copy, converged by anti-entropy)
    /// behind a ReplicatedNameService per task, so a replica loss
    /// mid-lookup fails over instead of failing a stage.
    int gns_replicas = 1;
    /// Shards the GNS namespace is hashed into (rendezvous-assigned to
    /// replicas; glob rules live in a broadcast shard every replica
    /// owns). More shards spread load and shrink anti-entropy deltas.
    int gns_shards = 8;
    /// Append-only journal of completed stages and staging copies
    /// (sequential-files mode only). A fresh file starts journaling; an
    /// existing one resumes the run, re-running only incomplete stages.
    /// Empty disables checkpointing. The workflow's scratch directories
    /// must be the same across the original and resumed runs.
    std::string checkpoint_path;
  };

  explicit WorkflowRunner(testbed::TestbedRuntime& testbed)
      : testbed_(testbed) {}

  /// Runs the workflow; model times in the report are relative to the
  /// run's start.
  Result<WorkflowReport> run(const WorkflowSpec& spec,
                             const Options& options);

 private:
  struct RunContext;

  Status prepare_external_inputs(const WorkflowSpec& spec,
                                 const std::vector<Edge>& edges,
                                 RunContext& ctx);
  Status install_rules(const WorkflowSpec& spec,
                       const std::vector<Edge>& edges, const Options& options,
                       RunContext& ctx);
  Result<TaskResult> run_task(const WorkflowSpec& spec, std::size_t index,
                              const Options& options, RunContext& ctx);

  /// Starts (or reuses) the staging file server on `machine`.
  Result<remote::FileServer*> ensure_file_server(const std::string& machine,
                                                 RunContext& ctx);
  /// GridFTP-style staging copy of `path` from `from` to `to`; appends a
  /// CopyResult to the report.
  Status stage_copy(const std::string& path, const std::string& from,
                    const std::string& to, const Options& options,
                    RunContext& ctx, WorkflowReport& report);
  /// Multicast staging of `path` from `from` to 2+ machines through a
  /// relay tree of their file servers; appends one CopyResult per
  /// destination to the report.
  Status stage_copy_many(const std::string& path, const std::string& from,
                         const std::vector<std::string>& destinations,
                         const Options& options, RunContext& ctx,
                         WorkflowReport& report);

  /// Starts (or reuses) the Grid Buffer server on `machine`.
  Result<gridbuffer::GridBufferServer*> ensure_buffer_server(
      const std::string& machine, RunContext& ctx);
  /// Installs the broadcast-channel rules for an edge whose consumers
  /// span 2+ machines: one buffer server per consumer machine, writes
  /// routed through the multicast relay tree.
  Status install_broadcast_edge(
      const WorkflowSpec& spec, const Edge& edge,
      const std::vector<std::string>& machines,
      const std::map<std::string, std::uint32_t>& local_readers,
      const Options& options, RunContext& ctx);

  /// Re-runs tasks that failed with a recoverable Status (kUnavailable,
  /// kTimeout, kDataLoss) after remapping their edges to staged-file
  /// mode via GNS overrides — the paper's fallback coupling. Results of
  /// recovered tasks are replaced in `results`.
  Status recover_failed_tasks(const WorkflowSpec& spec,
                              const std::vector<Edge>& edges,
                              const std::vector<std::size_t>& order,
                              const Options& options, RunContext& ctx,
                              std::vector<Result<TaskResult>>& results,
                              WorkflowReport& report);

  testbed::TestbedRuntime& testbed_;
};

}  // namespace griddles::workflow
