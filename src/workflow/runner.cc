#include "src/workflow/runner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/core/tailing_client.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/remote/copier.h"
#include "src/vfs/local_client.h"
#include "src/workflow/checkpoint.h"

namespace griddles::workflow {

namespace {
/// One-way latency below which an edge counts as "fast" (seconds).
constexpr double kFastLinkLatencyS = 0.005;

std::string canonical_in(const std::string& dir, const std::string& path) {
  return (std::filesystem::path(dir) / path).lexically_normal().string();
}

/// Failures worth a stage re-run: transient infrastructure trouble, a
/// verifiably incomplete stream (a Grid Buffer writer death surfaces as
/// kDataLoss once the reader has drained the cache file), or a shed
/// request (kResourceExhausted) — by the time the stage re-runs in
/// staged-file mode the burst has passed. Deliberately NOT retried
/// inline at the RPC layer: the stage re-run is the storm-safe path.
bool recoverable(ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout ||
         code == ErrorCode::kDataLoss ||
         code == ErrorCode::kResourceExhausted;
}

obs::Counter& stage_reruns_counter() {
  static obs::Counter& reruns =
      obs::MetricsRegistry::global().counter("stage.reruns");
  return reruns;
}

obs::Counter& checkpoint_stage_skipped_counter() {
  static obs::Counter& skipped =
      obs::MetricsRegistry::global().counter("checkpoint.stage.skipped");
  return skipped;
}

obs::Counter& checkpoint_copy_skipped_counter() {
  static obs::Counter& skipped =
      obs::MetricsRegistry::global().counter("checkpoint.copy.skipped");
  return skipped;
}

/// The journal record for a finished stage: result accounting plus the
/// hash of every output file.
Result<StageRecord> make_stage_record(
    const TaskSpec& task, const TaskResult& result,
    const std::map<std::string, std::string>& dirs) {
  StageRecord record;
  record.name = result.name;
  record.machine = result.machine;
  record.started_s = result.started_s;
  record.finished_s = result.finished_s;
  record.bytes_read = result.bytes_read;
  record.bytes_written = result.bytes_written;
  for (const apps::StreamSpec& out : task.kernel.outputs) {
    GL_ASSIGN_OR_RETURN(
        const std::uint64_t hash,
        hash_file(canonical_in(dirs.at(task.machine), out.path)));
    record.outputs.emplace_back(out.path, hash);
  }
  return record;
}

/// True when every output the record journaled still exists with the
/// recorded hash — the stage's work survived the crash intact.
bool stage_outputs_valid(const StageRecord& record,
                         const std::map<std::string, std::string>& dirs) {
  const auto dir = dirs.find(record.machine);
  if (dir == dirs.end()) return false;
  for (const auto& [path, hash] : record.outputs) {
    const auto on_disk = hash_file(canonical_in(dir->second, path));
    if (!on_disk.is_ok() || *on_disk != hash) return false;
  }
  return true;
}

TaskResult task_result_from(const StageRecord& record) {
  TaskResult result;
  result.name = record.name;
  result.machine = record.machine;
  result.started_s = record.started_s;
  result.finished_s = record.finished_s;
  result.bytes_read = record.bytes_read;
  result.bytes_written = record.bytes_written;
  return result;
}

/// Link costs for multicast tree planning from the static testbed model.
/// Hosts outside the paper testbed simply fail per pair, which degrades
/// the planner to uniform costs — never fails the copy.
multicast::PairEstimator testbed_pair_estimator() {
  return [](const std::string& src,
            const std::string& dst) -> Result<nws::LinkEstimate> {
    GL_ASSIGN_OR_RETURN(const testbed::MachineSpec a,
                        testbed::find_machine(src));
    GL_ASSIGN_OR_RETURN(const testbed::MachineSpec b,
                        testbed::find_machine(dst));
    const testbed::LinkSpec link = testbed::link_between(a, b);
    nws::LinkEstimate estimate;
    estimate.latency_seconds = link.latency_s;
    estimate.bandwidth_bytes_per_sec = link.mb_per_s * 1e6;
    return estimate;
  };
}

/// Writes an external input file with the deterministic stream content.
Status materialize_stream(const std::string& full_path,
                          const std::string& open_name,
                          std::uint64_t bytes) {
  GL_ASSIGN_OR_RETURN(auto file, vfs::LocalFileClient::open(
                                     full_path, vfs::OpenFlags::output()));
  Bytes chunk(64 * 1024);
  std::uint64_t offset = 0;
  while (offset < bytes) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk.size(), bytes - offset));
    apps::fill_stream(open_name, offset, {chunk.data(), want});
    GL_RETURN_IF_ERROR(vfs::write_all(*file, {chunk.data(), want}));
    offset += want;
  }
  return file->close();
}
}  // namespace

std::string_view coupling_mode_name(CouplingMode mode) noexcept {
  switch (mode) {
    case CouplingMode::kSequentialFiles: return "sequential-files";
    case CouplingMode::kConcurrentFiles: return "concurrent-files";
    case CouplingMode::kGridBuffers: return "grid-buffers";
  }
  return "?";
}

const TaskResult* WorkflowReport::task(const std::string& name) const {
  for (const TaskResult& result : tasks) {
    if (result.name == name) return &result;
  }
  return nullptr;
}

/// Where one edge's bytes go, worked out once per run.
struct WorkflowRunner::EdgePlan {
  const Edge* edge = nullptr;
  std::string producer;             // the producer's machine
  std::vector<std::string> remote;  // other consumer machines, each once
  // Grid Buffer edges (DESIGN.md §12): one relay tree rooted at
  // `first_hop`, the server the producer writes to. A consumer reads
  // from its own machine's server when that machine is a tree node, and
  // from the first hop otherwise.
  std::string channel;
  std::string first_hop;
  std::vector<multicast::RelayNode> relays;  // the first hop's subtrees
  std::map<std::string, std::string> reads_from;  // consumer -> server
  std::map<std::string, std::uint32_t> readers;   // server -> readers
};

struct WorkflowRunner::RunContext {
  std::unique_ptr<net::Transport> service_transport;
  // Multi-master GNS: `gns_replicas` nodes, each owning its own store
  // copy, sharded by rendezvous hash and converged by anti-entropy;
  // each task fronts them with a ReplicatedNameService. Names
  // ("gns-0"...) are the fault site keys.
  std::unique_ptr<gns::GnsCluster> gns;
  std::vector<std::pair<std::string, net::Endpoint>> gns_endpoints;

  std::unique_ptr<CheckpointLog> checkpoint;
  bool resuming = false;  // checkpoint replayed at least one record

  std::map<std::string, std::string> dirs;
  std::map<std::string, std::unique_ptr<net::Transport>> server_transports;
  std::map<std::string, std::unique_ptr<remote::FileServer>> file_servers;
  std::map<std::string, std::unique_ptr<gridbuffer::GridBufferServer>>
      buffer_servers;
  Duration start{0};
  std::string run_tag;
  std::vector<EdgePlan> plans;  // one per edge
};

Result<WorkflowReport> WorkflowRunner::run(const WorkflowSpec& spec,
                                           const Options& options) {
  GL_ASSIGN_OR_RETURN(const std::vector<Edge> edges, infer_edges(spec));
  GL_ASSIGN_OR_RETURN(const std::vector<std::size_t> order,
                      topological_order(spec, edges));
  if (spec.tasks.empty()) {
    return invalid_argument("workflow has no tasks");
  }

  RunContext ctx;
  // A unique tag per run isolates GNS/service endpoints and channels.
  // lint: not-a-metric (run-id)
  static std::atomic<std::uint64_t> run_counter{0};
  ctx.run_tag = strings::cat(spec.name, "-", run_counter.fetch_add(1));

  // The root of this run's trace: everything below — stages, opens,
  // copies, RPC hops, retries — parents back to this span.
  obs::Span workflow_span(obs::SpanKind::kWorkflow,
                          strings::cat("workflow:", spec.name));
  workflow_span.add_attr("mode", coupling_mode_name(options.mode));
  workflow_span.add_attr("tasks", strings::cat(spec.tasks.size()));

  // The run's end-to-end budget: model seconds anchored to the wall
  // clock here, then carried across every RPC hop below this frame.
  std::optional<WallClock::time_point> run_deadline;
  if (options.deadline_s > 0) {
    run_deadline = testbed_.clock().wall_deadline(
        from_seconds_d(options.deadline_s));
  }
  ScopedDeadline deadline_scope(run_deadline);

  for (const TaskSpec& task : spec.tasks) {
    if (!ctx.dirs.contains(task.machine)) {
      GL_ASSIGN_OR_RETURN(ctx.dirs[task.machine],
                          testbed_.machine_dir(task.machine));
    }
  }

  // The GNS lives with the first task's machine (paper §3.2: each
  // workflow may have its own GNS), replicated `gns_replicas` times as
  // a multi-master cluster: the namespace is sharded across replicas,
  // every write is vector-clock versioned, and the background
  // anti-entropy loop repairs whatever fault injection diverges.
  const std::string& gns_host = spec.tasks.front().machine;
  ctx.service_transport = testbed_.transport(gns_host);
  gns::GnsCluster::Options cluster_options;
  cluster_options.num_shards =
      static_cast<std::uint32_t>(std::max(1, options.gns_shards));
  ctx.gns = std::make_unique<gns::GnsCluster>(*ctx.service_transport,
                                              cluster_options);
  const int replicas = std::max(1, options.gns_replicas);
  for (int i = 0; i < replicas; ++i) {
    GL_RETURN_IF_ERROR(ctx.gns->add_replica(
        strings::cat("gns-", i),
        net::inproc_endpoint(gns_host,
                             strings::cat("gns-", ctx.run_tag, "-", i))));
  }
  GL_RETURN_IF_ERROR(ctx.gns->start());
  for (const gns::ReplicaAddress& replica : ctx.gns->endpoints()) {
    ctx.gns_endpoints.emplace_back(replica.name, replica.endpoint);
  }

  if (!options.checkpoint_path.empty()) {
    if (options.mode != CouplingMode::kSequentialFiles) {
      return invalid_argument(
          "checkpointing requires sequential-files coupling (tailing and "
          "buffer streams are not durable across a coordinator crash)");
    }
    GL_ASSIGN_OR_RETURN(ctx.checkpoint,
                        CheckpointLog::open(options.checkpoint_path));
    ctx.resuming = ctx.checkpoint->replayed() > 0;
    if (ctx.resuming) {
      GL_LOG(kInfo, "resuming from checkpoint ", options.checkpoint_path,
             " (", ctx.checkpoint->replayed(), " records)");
    }
  }

  for (std::size_t t = 0; t < spec.tasks.size(); ++t) {
    for (const apps::StreamSpec& input : external_inputs(spec, edges, t)) {
      GL_RETURN_IF_ERROR(materialize_stream(
          canonical_in(ctx.dirs.at(spec.tasks[t].machine), input.path),
          input.path, input.bytes));
    }
  }
  for (const Edge& edge : edges) {
    GL_ASSIGN_OR_RETURN(EdgePlan plan, plan_edge(spec, edge, options, ctx));
    ctx.plans.push_back(std::move(plan));
  }
  GL_RETURN_IF_ERROR(install_rules(spec, options, ctx));

  WorkflowReport report;
  ctx.start = testbed_.clock().now();

  if (options.mode == CouplingMode::kSequentialFiles) {
    for (const std::size_t index : order) {
      const TaskSpec& producer = spec.tasks[index];
      TaskResult result;
      const StageRecord* done =
          ctx.checkpoint ? ctx.checkpoint->stage(producer.kernel.name)
                         : nullptr;
      if (done != nullptr && stage_outputs_valid(*done, ctx.dirs)) {
        // Durably finished before the crash and the outputs still
        // hash-match on disk: keep the journaled accounting, skip the
        // compute.
        checkpoint_stage_skipped_counter().add();
        GL_LOG(kInfo, "stage ", producer.kernel.name,
               " replayed from checkpoint");
        result = task_result_from(*done);
      } else {
        auto attempt = run_task(spec, index, options, ctx);
        if (!attempt.is_ok() && recoverable(attempt.status().code())) {
          // Staged coupling already isolates stages behind whole files,
          // so one in-place re-run is the whole recovery story here.
          GL_LOG(kWarn, "stage ", producer.kernel.name, " failed (",
                 attempt.status(), "); re-running");
          stage_reruns_counter().add();
          obs::Span rerun_span(obs::SpanKind::kRetry,
                               strings::cat("stage.rerun:",
                                            producer.kernel.name));
          rerun_span.add_attr("error", attempt.status().message());
          attempt = run_task(spec, index, options, ctx);
        }
        GL_ASSIGN_OR_RETURN(result, std::move(attempt));
        // Stages executed during a resume (journal missing or outputs
        // invalidated) are the re-run work a crash cost us.
        if (ctx.resuming) stage_reruns_counter().add();
        if (ctx.checkpoint) {
          GL_ASSIGN_OR_RETURN(
              const StageRecord record,
              make_stage_record(producer, result, ctx.dirs));
          GL_RETURN_IF_ERROR(ctx.checkpoint->append_stage(record));
        }
      }
      report.tasks.push_back(result);

      // Stage outputs that remote consumers need (GridFTP-style copy).
      for (const EdgePlan& plan : ctx.plans) {
        if (plan.edge->producer != index) continue;
        GL_RETURN_IF_ERROR(ship(plan.edge->path, plan.producer, plan.remote,
                                options, ctx, report));
      }
    }
  } else {
    // Concurrent disciplines: every stage starts at once.
    std::vector<std::thread> threads;
    std::vector<Result<TaskResult>> results(
        spec.tasks.size(), Result<TaskResult>(internal_error("not run")));
    threads.reserve(spec.tasks.size());
    // Trace context and the run budget are thread-local: capture both
    // here and install them in each stage thread so stage spans parent
    // correctly and stage IO keeps the workflow deadline.
    const obs::TraceContext trace_parent = obs::current_context();
    const std::optional<WallClock::time_point> budget = current_deadline();
    for (std::size_t index = 0; index < spec.tasks.size(); ++index) {
      threads.emplace_back([&, index, budget] {
        obs::ScopedTraceContext trace_scope(trace_parent);
        ScopedDeadline stage_deadline(budget);
        results[index] = run_task(spec, index, options, ctx);
        // Publish completion markers so tailing readers can see EOF.
        if (options.mode == CouplingMode::kConcurrentFiles &&
            results[index].is_ok()) {
          const TaskSpec& task = spec.tasks[index];
          for (const apps::StreamSpec& out : task.kernel.outputs) {
            const std::string marker = core::TailingLocalFileClient::
                done_marker(canonical_in(ctx.dirs.at(task.machine),
                                         out.path));
            std::ofstream(marker).put('\n');
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    GL_RETURN_IF_ERROR(
        recover_failed_tasks(spec, order, options, ctx, results, report));
    for (std::size_t index = 0; index < spec.tasks.size(); ++index) {
      GL_ASSIGN_OR_RETURN(TaskResult result, std::move(results[index]));
      report.tasks.push_back(result);
    }
    std::sort(report.tasks.begin(), report.tasks.end(),
              [](const TaskResult& a, const TaskResult& b) {
                return a.finished_s < b.finished_s;
              });
  }

  for (const TaskResult& task : report.tasks) {
    report.total_seconds = std::max(report.total_seconds, task.finished_s);
  }
  for (const CopyResult& copy : report.copies) {
    report.total_seconds = std::max(report.total_seconds, copy.finished_s);
  }

  // Tear down per-run services.
  for (auto& [machine, server] : ctx.buffer_servers) server->stop();
  for (auto& [machine, server] : ctx.file_servers) server->stop();
  if (ctx.gns) {
    // A run that armed (and healed) a partition may leave replicas
    // divergent; drain the remaining deltas so post-run assertions see
    // a converged namespace. Still-armed faults make this best-effort.
    const Status converged = ctx.gns->converge(/*max_rounds=*/8);
    if (!converged.is_ok()) {
      GL_LOG(kWarn, "gns cluster did not converge at teardown: ",
             converged);
    }
    ctx.gns->stop();
  }
  return report;
}

Result<WorkflowRunner::EdgePlan> WorkflowRunner::plan_edge(
    const WorkflowSpec& spec, const Edge& edge, const Options& options,
    RunContext& ctx) {
  EdgePlan plan;
  plan.edge = &edge;
  plan.producer = spec.tasks[edge.producer].machine;
  for (const std::size_t consumer : edge.consumers) {
    const std::string& machine = spec.tasks[consumer].machine;
    if (machine != plan.producer &&
        std::find(plan.remote.begin(), plan.remote.end(), machine) ==
            plan.remote.end()) {
      plan.remote.push_back(machine);
    }
  }
  if (options.mode != CouplingMode::kGridBuffers) return plan;

  // Consumers on 2+ other machines get a relay tree of their servers, and
  // the producer writes each run once, into the cheapest first hop
  // (root_fanout=1). Otherwise the buffer sits at the first reader's end
  // (paper §3.1) and the tree has no relay children.
  plan.channel = strings::cat(ctx.run_tag, "/", edge.path);
  multicast::DistTree tree;
  if (plan.remote.size() >= 2 && options.multicast_fanout > 0) {
    multicast::TreeOptions tree_options;
    tree_options.max_fanout = options.multicast_fanout;
    tree_options.root_fanout = 1;
    GL_ASSIGN_OR_RETURN(tree, multicast::plan_tree(plan.producer, plan.remote,
                                                   testbed_pair_estimator(),
                                                   tree_options));
    plan.first_hop =
        tree.nodes[static_cast<std::size_t>(tree.source().children.front())]
            .host;
  } else {
    plan.first_hop = spec.tasks[edge.consumers.front()].machine;
  }
  for (const std::size_t consumer : edge.consumers) {
    const std::string& machine = spec.tasks[consumer].machine;
    const bool node = machine == plan.first_hop ||
                      (!tree.nodes.empty() && machine != plan.producer);
    plan.reads_from[machine] = node ? machine : plan.first_hop;
    ++plan.readers[plan.reads_from[machine]];
  }
  for (const auto& [server, readers] : plan.readers) {
    GL_RETURN_IF_ERROR(ensure_buffer_server(server, ctx).status());
  }

  // The subtrees the first hop relays every run to. Every node carries
  // its machine-local reader count — expected_readers is the one channel
  // parameter that legitimately differs per machine.
  const std::function<multicast::RelayNode(int)> build =
      [&](int index) -> multicast::RelayNode {
    const multicast::TreeNode& planned =
        tree.nodes[static_cast<std::size_t>(index)];
    multicast::RelayNode node;
    node.host = planned.host;
    node.endpoint =
        ctx.buffer_servers.at(planned.host)->endpoint().to_string();
    node.path = plan.channel;
    node.readers = plan.readers.at(planned.host);
    for (const int child : planned.children) {
      node.children.push_back(build(child));
    }
    return node;
  };
  if (!tree.nodes.empty()) {
    plan.relays = build(tree.source().children.front()).children;
  }
  return plan;
}

Status WorkflowRunner::install_rules(const WorkflowSpec& spec,
                                     const Options& options,
                                     RunContext& ctx) {
  if (options.mode == CouplingMode::kConcurrentFiles) {
    // The paper ran this on one machine; we also require it, since a
    // tailing read needs a shared FS.
    for (const TaskSpec& task : spec.tasks) {
      if (task.machine != spec.tasks.front().machine) {
        return invalid_argument(
            "concurrent-files coupling requires a single machine");
      }
    }
  }
  for (const EdgePlan& plan : ctx.plans) {
    if (options.mode == CouplingMode::kGridBuffers) {
      GL_RETURN_IF_ERROR(install_buffer_edge(plan, options, ctx));
    } else if (options.mode == CouplingMode::kConcurrentFiles) {
      // Tail-read every edge file.
      gns::FileMapping tail;
      tail.tail = true;
      for (const std::size_t consumer : plan.edge->consumers) {
        GL_RETURN_IF_ERROR(map_path(ctx, spec.tasks[consumer].machine,
                                    plan.edge->path, tail));
      }
    } else if (!plan.remote.empty()) {
      // Plain local IO everywhere; cross-machine edges need the
      // producer's file server up for the staging copies.
      GL_RETURN_IF_ERROR(ensure_file_server(plan.producer, ctx).status());
    }
  }
  return Status::ok();
}

Status WorkflowRunner::install_buffer_edge(const EdgePlan& plan,
                                           const Options& options,
                                           RunContext& ctx) {
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kGridBuffer;
  mapping.channel = plan.channel;
  mapping.block_size = options.buffer_block;
  if (!plan.relays.empty()) {
    gridbuffer::ChannelConfig config;
    config.block_size = options.buffer_block;
    ctx.buffer_servers.at(plan.first_hop)
        ->set_broadcast(plan.channel, config, plan.relays);
    GL_LOG(kInfo, "broadcast channel ", plan.channel, ": producer ",
           plan.producer, " -> ", plan.first_hop, " -> ",
           plan.remote.size() - 1, " relayed machine(s)");
  } else if (options.buffer_block_fast_link != 0) {
    const auto producer_spec = testbed::find_machine(plan.producer);
    const auto buffer_spec = testbed::find_machine(plan.first_hop);
    if (producer_spec.is_ok() && buffer_spec.is_ok() &&
        testbed::link_between(*producer_spec, *buffer_spec).latency_s <
            kFastLinkLatencyS) {
      // Keep ~64 blocks per stream so small edges still flow with fine
      // granularity, capped by the configured fast block.
      const std::uint64_t proportional =
          std::max<std::uint64_t>(512, plan.edge->bytes / 64);
      mapping.block_size = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          std::max<std::uint64_t>(options.buffer_block, proportional),
          options.buffer_block_fast_link));
    }
  }
  // The producer writes into the first hop's server; every consumer
  // reads from its own server.
  const auto served_by = [&](const std::string& server) {
    gns::FileMapping served = mapping;
    served.buffer_endpoint =
        ctx.buffer_servers.at(server)->endpoint().to_string();
    served.reader_count = plan.readers.at(server);
    return served;
  };
  GL_RETURN_IF_ERROR(map_path(ctx, plan.producer, plan.edge->path,
                              served_by(plan.first_hop)));
  for (const auto& [machine, server] : plan.reads_from) {
    GL_RETURN_IF_ERROR(
        map_path(ctx, machine, plan.edge->path, served_by(server)));
  }
  return Status::ok();
}

Status WorkflowRunner::map_path(RunContext& ctx, const std::string& machine,
                                const std::string& path,
                                const gns::FileMapping& mapping) {
  gns::MappingRule rule;
  rule.host_pattern = machine;
  rule.path_pattern = canonical_in(ctx.dirs.at(machine), path);
  rule.mapping = mapping;
  return ctx.gns->add_rule(std::move(rule));
}

Result<TaskResult> WorkflowRunner::run_task(const WorkflowSpec& spec,
                                            std::size_t index,
                                            const Options& options,
                                            RunContext& ctx) {
  const TaskSpec& task = spec.tasks[index];
  obs::Span stage_span(obs::SpanKind::kStage,
                       strings::cat("stage:", task.kernel.name));
  stage_span.add_attr("machine", task.machine);
  GL_ASSIGN_OR_RETURN(testbed::MachineRuntime* machine,
                      testbed_.machine(task.machine));
  auto transport = testbed_.transport(task.machine);
  gns::ReplicatedNameService name_service(*transport);
  for (const auto& [name, endpoint] : ctx.gns_endpoints) {
    name_service.add_replica(name, endpoint);
  }
  // Static-testbed link model as the NWS fallback: replica selection
  // keeps working (degraded) when every estimate has gone stale.
  testbed::StaticModelEstimator static_links(task.machine);

  core::FileMultiplexer::Options fm_options;
  fm_options.host = task.machine;
  fm_options.local_root = ctx.dirs.at(task.machine);
  fm_options.scratch_dir = canonical_in(ctx.dirs.at(task.machine),
                                        "scratch");
  fm_options.gns = &name_service;
  fm_options.fallback_estimator = &static_links;
  fm_options.transport = transport.get();
  fm_options.clock = &testbed_.clock();
  fm_options.buffer.writer_window_blocks = options.writer_window;
  fm_options.tail_poll_interval = options.poll_interval;
  if (options.mode == CouplingMode::kConcurrentFiles) {
    Clock* clock = &testbed_.clock();
    fm_options.poll_wait = [machine, clock](Duration interval) {
      // Polling burns a CPU share: kPollDuty of the interval is busy work
      // competing with real compute, the rest is sleep.
      const double seconds = to_seconds_d(interval);
      machine->compute(kPollDuty * seconds * machine->spec().speed);
      clock->sleep_for(from_seconds_d(seconds * (1.0 - kPollDuty)));
    };
  }

  core::FileMultiplexer fm(fm_options);
  GL_ASSIGN_OR_RETURN(
      const apps::AppReport app_report,
      apps::run_app(task.kernel, fm, *machine, testbed_.clock()));
  GL_RETURN_IF_ERROR(fm.close_all());

  TaskResult result;
  result.name = task.kernel.name;
  result.machine = task.machine;
  result.started_s = to_seconds_d(app_report.started - ctx.start);
  result.finished_s = to_seconds_d(app_report.finished - ctx.start);
  result.bytes_read = app_report.bytes_read;
  result.bytes_written = app_report.bytes_written;
  GL_LOG(kInfo, "task ", result.name, " on ", result.machine,
         " finished at ", result.finished_s, "s");
  return result;
}

Result<remote::FileServer*> WorkflowRunner::ensure_file_server(
    const std::string& machine, RunContext& ctx) {
  auto& server = ctx.file_servers[machine];
  if (!server) {
    auto& transport = ctx.server_transports[machine];
    transport = testbed_.transport(machine);
    server = std::make_unique<remote::FileServer>(
        ctx.dirs.at(machine), *transport,
        net::inproc_endpoint(machine, strings::cat("fs-", ctx.run_tag)));
    GL_RETURN_IF_ERROR(server->start());
  }
  return server.get();
}

Result<gridbuffer::GridBufferServer*> WorkflowRunner::ensure_buffer_server(
    const std::string& machine, RunContext& ctx) {
  auto& server = ctx.buffer_servers[machine];
  if (!server) {
    auto& transport =
        ctx.server_transports[strings::cat("gbuf-", machine)];
    transport = testbed_.transport(machine);
    server = std::make_unique<gridbuffer::GridBufferServer>(
        canonical_in(ctx.dirs.at(machine), "gbuf-cache"), *transport,
        net::inproc_endpoint(machine, strings::cat("gbuf-", ctx.run_tag)));
    GL_RETURN_IF_ERROR(server->start());
  }
  return server.get();
}

Status WorkflowRunner::ship(const std::string& path, const std::string& from,
                            const std::vector<std::string>& destinations,
                            const Options& options, RunContext& ctx,
                            WorkflowReport& report) {
  // Checkpoint-skip first; what remains actually needs shipping.
  std::vector<std::string> pending;
  for (const std::string& to : destinations) {
    const CopyRecord* copied =
        ctx.checkpoint ? ctx.checkpoint->copy(path, from, to) : nullptr;
    if (copied != nullptr) {
      const auto on_disk = hash_file(canonical_in(ctx.dirs.at(to), path));
      if (on_disk.is_ok() && *on_disk == copied->dest_hash) {
        checkpoint_copy_skipped_counter().add();
        report.copies.push_back(CopyResult{copied->path, copied->from,
                                           copied->to, copied->finished_s,
                                           copied->seconds});
        continue;
      }
    }
    pending.push_back(to);
  }
  // Reports a fresh copy and journals it.
  const auto record = [&](const std::string& to, double finished_s,
                          double seconds) -> Status {
    report.copies.push_back(CopyResult{path, from, to, finished_s, seconds});
    if (!ctx.checkpoint) return Status::ok();
    GL_ASSIGN_OR_RETURN(const std::uint64_t dest_hash,
                        hash_file(canonical_in(ctx.dirs.at(to), path)));
    return ctx.checkpoint->append_copy(
        CopyRecord{path, from, to, finished_s, seconds, dest_hash});
  };
  if (pending.size() < 2 || options.multicast_fanout <= 0) {
    for (const std::string& to : pending) {
      GL_ASSIGN_OR_RETURN(remote::FileServer * server,
                          ensure_file_server(from, ctx));
      auto transport = testbed_.transport(to);
      remote::FileCopier copier(*transport, testbed_.clock());
      GL_ASSIGN_OR_RETURN(
          const remote::CopyStats stats,
          copier.fetch(server->endpoint(), path,
                       canonical_in(ctx.dirs.at(to), path)));
      GL_RETURN_IF_ERROR(record(
          to, to_seconds_d(testbed_.clock().now() - ctx.start),
          stats.seconds));
    }
    return Status::ok();
  }
  // One multicast distribution instead of N point-to-point copies
  // (DESIGN.md §12). Push-based: the copier runs at the source and
  // streams chunks into the relay tree; every destination's file server
  // can be recruited as an interior relay, so each needs to be up.
  std::vector<remote::MultiCopyTarget> targets;
  targets.reserve(pending.size());
  for (const std::string& destination : pending) {
    GL_ASSIGN_OR_RETURN(remote::FileServer * server,
                        ensure_file_server(destination, ctx));
    targets.push_back(
        remote::MultiCopyTarget{destination, server->endpoint(), path});
  }
  auto transport = testbed_.transport(from);
  remote::FileCopier copier(*transport, testbed_.clock());
  multicast::TreeOptions tree_options;
  tree_options.max_fanout = options.multicast_fanout;
  tree_options.root_fanout =
      std::min(tree_options.root_fanout, options.multicast_fanout);
  GL_ASSIGN_OR_RETURN(
      const remote::MultiCopyStats stats,
      copier.copy_to_many(canonical_in(ctx.dirs.at(from), path), targets,
                          tree_options, testbed_pair_estimator()));
  const double finished_s = to_seconds_d(testbed_.clock().now() - ctx.start);
  for (const std::string& destination : pending) {
    GL_RETURN_IF_ERROR(record(destination, finished_s, stats.seconds));
  }
  GL_LOG(kInfo, "multicast staged ", path, " from ", from, " to ",
         pending.size(), " machine(s): depth ", stats.tree_depth,
         ", source bytes ", stats.source_bytes_sent, ", reparents ",
         stats.reparents);
  return Status::ok();
}

Status WorkflowRunner::recover_failed_tasks(
    const WorkflowSpec& spec, const std::vector<std::size_t>& order,
    const Options& options, RunContext& ctx,
    std::vector<Result<TaskResult>>& results, WorkflowReport& report) {
  std::vector<std::size_t> failed;  // topological order
  for (const std::size_t index : order) {
    if (!results[index].is_ok() &&
        recoverable(results[index].status().code())) {
      failed.push_back(index);
    }
  }
  if (failed.empty()) return Status::ok();
  const std::set<std::size_t> rerun(failed.begin(), failed.end());
  GL_LOG(kWarn, "recovering ", failed.size(),
         " failed stage(s) via staged-file remap");

  // A re-written (host, path) key supersedes the old mapping (higher
  // Lamport priority wins the lookup), so writing kLocal rules flips
  // the failed stages' edges — and only those — to the staged-file
  // discipline. Inputs from producers that succeeded keep
  // their original mapping: a closed Grid Buffer channel replays its
  // cache file to the fresh reader, and a tailed file is complete on
  // disk with its done marker published.
  const gns::FileMapping local;
  for (const EdgePlan& plan : ctx.plans) {
    if (!rerun.contains(plan.edge->producer)) continue;
    GL_RETURN_IF_ERROR(map_path(ctx, plan.producer, plan.edge->path, local));
    for (const std::size_t consumer : plan.edge->consumers) {
      if (!rerun.contains(consumer)) continue;
      GL_RETURN_IF_ERROR(map_path(ctx, spec.tasks[consumer].machine,
                                  plan.edge->path, local));
    }
  }

  for (const std::size_t index : failed) {
    const TaskSpec& task = spec.tasks[index];
    GL_LOG(kWarn, "re-running stage ", task.kernel.name, " (",
           results[index].status(), ")");
    stage_reruns_counter().add();
    // The recovery re-run (and the copies that re-ship its outputs)
    // shows up as one child span on the timeline.
    obs::Span recovery_span(obs::SpanKind::kRecovery,
                            strings::cat("stage.recover:",
                                         task.kernel.name));
    recovery_span.add_attr("error", results[index].status().message());
    GL_ASSIGN_OR_RETURN(TaskResult result, run_task(spec, index, options,
                                                    ctx));
    // Ship re-staged outputs to the machines of re-run consumers.
    for (const EdgePlan& plan : ctx.plans) {
      if (plan.edge->producer != index) continue;
      std::vector<std::string> destinations = plan.remote;
      std::erase_if(destinations, [&](const std::string& machine) {
        return std::none_of(
            plan.edge->consumers.begin(), plan.edge->consumers.end(),
            [&](std::size_t c) {
              return rerun.contains(c) && spec.tasks[c].machine == machine;
            });
      });
      GL_RETURN_IF_ERROR(ship(plan.edge->path, plan.producer, destinations,
                              options, ctx, report));
    }
    results[index] = std::move(result);
  }
  return Status::ok();
}

}  // namespace griddles::workflow
