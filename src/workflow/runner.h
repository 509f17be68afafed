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
//       (Table 2 exps 2-3; Table 4 "Buffers"; Table 5 "Buffers"). Every
//       edge is one relay tree rooted at the server the producer writes
//       to; a 1->1 stream is the tree with no relay children.
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

/// CPU share a tailing reader burns while polling (kConcurrentFiles);
/// desim's predictor charges the same share.
inline constexpr double kPollDuty = 0.25;

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
    Duration poll_interval = std::chrono::milliseconds(500);
    /// Grid Buffer block size. Channels always keep their cache file:
    /// DARLAM re-reads its input, and recovery replays a closed channel's
    /// cache file to a fresh reader.
    std::uint32_t buffer_block = 4096;
    /// Block size override for low-latency (same-site, under 5 ms one
    /// way) edges; 0 keeps buffer_block. Byte-scaled benches shrink
    /// buffer_block to keep WAN streams latency-faithful, which makes
    /// loopback edges needlessly RPC-bound — a larger block there
    /// changes no modelled time.
    std::uint32_t buffer_block_fast_link = 0;
    /// Grid Buffer writer credit in blocks (DESIGN.md §16): the writer
    /// keeps gridbuffer::kRunsOnWire (4) runs of up to writer_window / 4
    /// whole blocks on the wire, one kWrite each, so WAN throughput is
    /// bounded by ~writer_window*block/RTT. The default sends 16-block
    /// runs; writer_window == 4 is the paper's latency-sensitive stream
    /// (4 blocks in flight, ~4*block/RTT).
    std::size_t writer_window = 64;
    /// Relay fanout for multicast distribution (DESIGN.md §12): when a
    /// stage output feeds 2+ cross-machine consumers, staged copies go
    /// through a bounded-fanout spanning tree (and grid-buffer edges
    /// with 2+ consumer machines become broadcast channels) instead of
    /// N point-to-point transfers. 0 disables multicast entirely.
    int multicast_fanout = 4;
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
  struct EdgePlan;
  struct RunContext;

  /// Works out where `edge`'s bytes go; for Grid Buffer edges it starts
  /// the buffer servers of the relay tree.
  Result<EdgePlan> plan_edge(const WorkflowSpec& spec, const Edge& edge,
                             const Options& options, RunContext& ctx);
  Status install_rules(const WorkflowSpec& spec, const Options& options,
                       RunContext& ctx);
  /// Installs a Grid Buffer edge's relay tree and its rules.
  Status install_buffer_edge(const EdgePlan& plan, const Options& options,
                             RunContext& ctx);
  /// Writes the GNS rule that maps `path` as `machine` opens it: the one
  /// place the runner builds a gns::MappingRule.
  static Status map_path(RunContext& ctx, const std::string& machine,
                         const std::string& path,
                         const gns::FileMapping& mapping);
  Result<TaskResult> run_task(const WorkflowSpec& spec, std::size_t index,
                              const Options& options, RunContext& ctx);

  /// Starts (or reuses) the staging file server on `machine`.
  Result<remote::FileServer*> ensure_file_server(const std::string& machine,
                                                 RunContext& ctx);
  /// Ships `path` from `from` to `destinations` and reports (and
  /// journals) one CopyResult each: one push through a relay tree of
  /// their file servers for 2+ destinations when multicast is on, else
  /// one GridFTP-style fetch each. Journaled intact copies are skipped.
  Status ship(const std::string& path, const std::string& from,
              const std::vector<std::string>& destinations,
              const Options& options, RunContext& ctx,
              WorkflowReport& report);

  /// Starts (or reuses) the Grid Buffer server on `machine`.
  Result<gridbuffer::GridBufferServer*> ensure_buffer_server(
      const std::string& machine, RunContext& ctx);

  /// Re-runs tasks that failed with a recoverable Status (kUnavailable,
  /// kTimeout, kDataLoss) after remapping their edges to staged-file
  /// mode via GNS overrides — the paper's fallback coupling. Results of
  /// recovered tasks are replaced in `results`.
  Status recover_failed_tasks(const WorkflowSpec& spec,
                              const std::vector<std::size_t>& order,
                              const Options& options, RunContext& ctx,
                              std::vector<Result<TaskResult>>& results,
                              WorkflowReport& report);

  testbed::TestbedRuntime& testbed_;
};

}  // namespace griddles::workflow
