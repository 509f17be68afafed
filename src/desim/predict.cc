#include "src/desim/predict.h"

#include <algorithm>
#include <cmath>

#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace griddles::desim {

namespace {
using workflow::CouplingMode;
using workflow::Edge;
using workflow::WorkflowSpec;

constexpr double kDt = 0.25;  // integration step, model seconds
constexpr double kMaxSimSeconds = 48 * 3600;
constexpr double kEps = 1e-9;
}  // namespace

double buffer_stream_bps(const testbed::LinkSpec& link,
                         std::uint32_t block_size, std::size_t window_blocks,
                         int flusher_threads) {
  if (link.mb_per_s <= 0 && link.latency_s <= 0) return 1e18;  // loopback
  const double bw = link.mb_per_s > 0 ? link.mb_per_s * 1e6 : 1e18;
  // Each sender is a synchronous request/response loop: one run per
  // (round trip + serialization), in parallel, never exceeding the link
  // bandwidth. As in the writer, a run is window_blocks / flusher_threads
  // blocks, at least one, and the credit keeps at most window_blocks
  // blocks in flight.
  const std::size_t window = std::max<std::size_t>(1, window_blocks);
  const std::size_t senders = std::min(
      static_cast<std::size_t>(std::max(1, flusher_threads)), window);
  const double run_bytes =
      static_cast<double>(window / senders) * block_size;
  const double per_run = link.latency_s * 2 + run_bytes / bw;
  return std::min(bw, static_cast<double>(senders) * run_bytes / per_run);
}

double staged_copy_seconds(const testbed::LinkSpec& link,
                           std::uint64_t bytes) {
  if (link.mb_per_s <= 0 && link.latency_s <= 0) return 0;
  const double bw = link.mb_per_s > 0 ? link.mb_per_s * 1e6 : 1e18;
  // Parallel chunk streams hide per-chunk round trips; a few handshakes
  // remain up front.
  return 4 * link.latency_s + static_cast<double>(bytes) / bw;
}

namespace {

struct TaskState {
  double cpu_total = 0;
  double cpu_done = 0;
  double disk_total = 0;  // bytes through the modelled disk
  double disk_done = 0;
  bool finished = false;
  double finish_time = 0;

  double fraction() const {
    const double total = cpu_total + disk_total * 1e-12;
    if (total <= 0) return finished ? 1.0 : 0.0;
    return (cpu_done + disk_done * 1e-12) / total;
  }
};

/// Weighted water-filling: divides `capacity` among demands in
/// proportion to weights; a demand smaller than its weighted share is
/// fully satisfied and its surplus is redistributed (generalized
/// processor-sharing semantics per dt). A poll-burning reader gets
/// weight = poll duty, a working process weight 1.
std::vector<double> water_fill(const std::vector<double>& demands,
                               const std::vector<double>& weights,
                               double capacity) {
  std::vector<double> alloc(demands.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i] > kEps && weights[i] > kEps) open.push_back(i);
  }
  while (!open.empty() && capacity > kEps) {
    double weight_sum = 0;
    for (const std::size_t i : open) weight_sum += weights[i];
    std::vector<std::size_t> still_open;
    double used = 0;
    for (const std::size_t i : open) {
      const double share = capacity * weights[i] / weight_sum;
      const double want = demands[i] - alloc[i];
      const double give = std::min(want, share);
      alloc[i] += give;
      used += give;
      if (alloc[i] + kEps < demands[i]) still_open.push_back(i);
    }
    capacity -= used;
    if (used <= kEps) break;
    open = std::move(still_open);
  }
  return alloc;
}

}  // namespace

void record_accuracy(double predicted_s, double actual_s) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& checked = registry.counter("desim.predictions.checked");
  // Ratio buckets centered on 1.0: 2^-4 .. 2^5 covers 16x-off both ways.
  static obs::Histogram& ratio = registry.histogram(
      "desim.accuracy.ratio", obs::exponential_bounds(0.0625, 2.0, 10));
  checked.add();
  if (predicted_s > 0) ratio.observe(actual_s / predicted_s);
}

Result<Prediction> predict(
    const WorkflowSpec& spec,
    const workflow::WorkflowRunner::Options& options) {
  static obs::Counter& predictions =
      obs::MetricsRegistry::global().counter("desim.predictions");
  predictions.add();
  GL_ASSIGN_OR_RETURN(const std::vector<Edge> edges,
                      workflow::infer_edges(spec));
  GL_ASSIGN_OR_RETURN(const std::vector<std::size_t> order,
                      workflow::topological_order(spec, edges));

  std::vector<testbed::MachineSpec> machines(spec.tasks.size());
  for (std::size_t t = 0; t < spec.tasks.size(); ++t) {
    GL_ASSIGN_OR_RETURN(machines[t],
                        testbed::find_machine(spec.tasks[t].machine));
  }

  Prediction prediction;

  if (options.mode == CouplingMode::kSequentialFiles) {
    double now = 0;
    for (const std::size_t index : order) {
      const apps::AppKernel& kernel = spec.tasks[index].kernel;
      const testbed::MachineSpec& machine = machines[index];
      double bytes = 0;
      for (const auto& in : kernel.inputs) bytes += in.bytes;
      bytes += kernel.reread_bytes;
      for (const auto& out : kernel.outputs) bytes += out.bytes;
      now += kernel.work_units / machine.speed +
             bytes / (machine.disk_mb_per_s * 1e6);
      prediction.task_finish_s[kernel.name] = now;

      for (const Edge& edge : edges) {
        if (edge.producer != index) continue;
        std::vector<std::string> copied_to;
        for (const std::size_t consumer : edge.consumers) {
          const std::string& dst = spec.tasks[consumer].machine;
          if (dst == spec.tasks[index].machine) continue;
          if (std::find(copied_to.begin(), copied_to.end(), dst) !=
              copied_to.end()) {
            continue;
          }
          copied_to.push_back(dst);
          GL_ASSIGN_OR_RETURN(const testbed::MachineSpec dst_spec,
                              testbed::find_machine(dst));
          const double copy = staged_copy_seconds(
              testbed::link_between(machines[index], dst_spec), edge.bytes);
          now += copy;
          prediction.copy_seconds += copy;
        }
      }
    }
    prediction.total_seconds = now;
    return prediction;
  }

  // ---- Concurrent modes: demand-limited fluid integration. ------------
  const bool buffers = options.mode == CouplingMode::kGridBuffers;
  const std::size_t n = spec.tasks.size();

  std::vector<TaskState> tasks(n);
  for (std::size_t t = 0; t < n; ++t) {
    const apps::AppKernel& kernel = spec.tasks[t].kernel;
    tasks[t].cpu_total = kernel.work_units;
    auto is_edge = [&](const std::string& path) {
      return std::any_of(edges.begin(), edges.end(),
                         [&](const Edge& e) { return e.path == path; });
    };
    double edge_bytes = 0;
    double file_bytes = 0;
    for (const auto& in : kernel.inputs) {
      (is_edge(in.path) ? edge_bytes : file_bytes) += in.bytes;
    }
    edge_bytes += kernel.reread_bytes;
    for (const auto& out : kernel.outputs) {
      (is_edge(out.path) ? edge_bytes : file_bytes) += out.bytes;
    }
    if (buffers) {
      // Streamed bytes pay the per-block service tax in CPU.
      tasks[t].cpu_total +=
          edge_bytes / 4096.0 * machines[t].ipc_units_per_block;
      tasks[t].disk_total = file_bytes;
    } else {
      tasks[t].disk_total = edge_bytes + file_bytes;
    }
  }

  // Edge delivery caps (bytes/second from producer to consumers).
  std::vector<double> delivered(edges.size(), 0.0);
  std::vector<double> stream_bps(edges.size(), 1e18);
  if (buffers) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const testbed::MachineSpec& producer = machines[edges[e].producer];
      const testbed::MachineSpec& buffer_host =
          machines[edges[e].consumers.front()];
      stream_bps[e] = buffer_stream_bps(
          testbed::link_between(producer, buffer_host),
          options.buffer_block, options.writer_window,
          options.flusher_threads);
    }
  }

  // Per-machine resource capacities.
  std::map<std::string, double> cpu_rate;   // work units / second
  std::map<std::string, double> disk_rate;  // bytes / second
  for (std::size_t t = 0; t < n; ++t) {
    cpu_rate[spec.tasks[t].machine] = machines[t].speed;
    disk_rate[spec.tasks[t].machine] = machines[t].disk_mb_per_s * 1e6;
  }

  double now = 0;
  std::size_t remaining = n;
  while (remaining > 0 && now < kMaxSimSeconds) {
    // Input-availability cap per task.
    std::vector<double> cap(n, 1.0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const double avail =
          edges[e].bytes > 0
              ? delivered[e] / static_cast<double>(edges[e].bytes)
              : 1.0;
      for (const std::size_t consumer : edges[e].consumers) {
        cap[consumer] = std::min(cap[consumer], avail);
      }
    }

    // Build per-machine demand lists.
    struct Demand {
      std::size_t task;
      bool is_poller;
    };
    std::map<std::string, std::vector<Demand>> cpu_demanders;
    std::map<std::string, std::vector<double>> cpu_demands;
    std::map<std::string, std::vector<double>> cpu_weights;
    std::map<std::string, std::vector<std::size_t>> disk_demanders;
    std::map<std::string, std::vector<double>> disk_demands;
    std::map<std::string, std::vector<double>> disk_weights;

    for (std::size_t t = 0; t < n; ++t) {
      if (tasks[t].finished) continue;
      const std::string& machine = spec.tasks[t].machine;
      const double speed = machines[t].speed;
      const double cpu_room =
          std::max(0.0, cap[t] * tasks[t].cpu_total - tasks[t].cpu_done);
      const double disk_room =
          std::max(0.0, cap[t] * tasks[t].disk_total - tasks[t].disk_done);
      const double cpu_demand = std::min(cpu_room, speed * kDt);
      const double disk_demand =
          std::min(disk_room, disk_rate[machine] * kDt);
      if (cpu_demand > kEps) {
        cpu_demanders[machine].push_back({t, false});
        cpu_demands[machine].push_back(cpu_demand);
        cpu_weights[machine].push_back(1.0);
      }
      // An input-rate-limited tailing reader polls between trickles,
      // burning a duty-weighted CPU share on top of its real work.
      if (!buffers && cap[t] < 1.0 - kEps &&
          cpu_room < speed * kDt - kEps && !spec.tasks[t].kernel.inputs
                                                .empty()) {
        cpu_demanders[machine].push_back({t, true});
        cpu_demands[machine].push_back(options.poll_duty * speed * kDt);
        cpu_weights[machine].push_back(options.poll_duty);
      }
      if (disk_demand > kEps) {
        disk_demanders[machine].push_back(t);
        disk_demands[machine].push_back(disk_demand);
        disk_weights[machine].push_back(1.0);
      }
    }

    // Allocate and apply.
    for (auto& [machine, demands] : cpu_demands) {
      const auto alloc = water_fill(demands, cpu_weights[machine],
                                    cpu_rate[machine] * kDt);
      for (std::size_t i = 0; i < alloc.size(); ++i) {
        const Demand& demand = cpu_demanders[machine][i];
        if (!demand.is_poller) tasks[demand.task].cpu_done += alloc[i];
      }
    }
    for (auto& [machine, demands] : disk_demands) {
      const auto alloc = water_fill(demands, disk_weights[machine],
                                    disk_rate[machine] * kDt);
      for (std::size_t i = 0; i < alloc.size(); ++i) {
        tasks[disk_demanders[machine][i]].disk_done += alloc[i];
      }
    }

    // Deliver edge bytes: bounded by producer progress and stream rate.
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const double produced =
          tasks[edges[e].producer].fraction() *
          static_cast<double>(edges[e].bytes);
      delivered[e] =
          std::min(produced, delivered[e] + stream_bps[e] * kDt);
    }

    now += kDt;

    // Completion: all fluids done and all inputs fully delivered.
    for (std::size_t t = 0; t < n; ++t) {
      if (tasks[t].finished) continue;
      if (tasks[t].cpu_done + 1e-6 < tasks[t].cpu_total) continue;
      if (tasks[t].disk_done + 1e-3 < tasks[t].disk_total) continue;
      bool inputs_complete = true;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const auto& consumers = edges[e].consumers;
        if (std::find(consumers.begin(), consumers.end(), t) ==
            consumers.end()) {
          continue;
        }
        if (delivered[e] + 1e-3 < static_cast<double>(edges[e].bytes)) {
          inputs_complete = false;
          break;
        }
      }
      if (!inputs_complete) continue;
      tasks[t].finished = true;
      tasks[t].finish_time = now;
      --remaining;
    }
  }

  if (remaining > 0) {
    return internal_error(
        strings::cat("prediction did not converge for '", spec.name, "'"));
  }
  for (std::size_t t = 0; t < n; ++t) {
    prediction.task_finish_s[spec.tasks[t].kernel.name] =
        tasks[t].finish_time;
    prediction.total_seconds =
        std::max(prediction.total_seconds, tasks[t].finish_time);
  }
  return prediction;
}

}  // namespace griddles::desim
