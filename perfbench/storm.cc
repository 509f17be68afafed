// open-storm-tcp: a legacy program opening many distinct small files one
// at a time, over real loopback TCP. Each op is an FM open (a cold GNS
// lookup), a 4 KiB remote-proxy read and a close; the payload is checked
// against the generator. One iteration is one program run of kOpens ops
// with its own name-service client, so every lookup misses the client
// cache. The file server restarts on the same port between program runs,
// because an RpcServer keeps every accepted connection until stop().

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>

#include "perfbench/bench.h"
#include "src/apps/kernel.h"
#include "src/common/strings.h"
#include "src/core/multiplexer.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/net/tcp.h"
#include "src/obs/span.h"
#include "src/remote/file_server.h"
#include "src/vfs/local_client.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace gns = griddles::gns;
namespace net = griddles::net;
namespace obs = griddles::obs;
using griddles::strings::cat;

namespace {

constexpr int kRules = 4000;
constexpr int kOpens = 100;
constexpr std::size_t kPayload = 4096;
constexpr int kSetupRepeats = 7;
constexpr int kMinPrograms = 20;
/// HostCorrector sensitivity, fitted over 10 runs on the reference host:
/// loopback TCP and syscalls slow more than twice as much as the probe
/// when the host slows (README.md, "Host correction").
constexpr double kHostSensitivity = 2.4;
const char* const kHost = "storm";

std::string file_name(int i) { return cat("in/f", 100000 + i, ".dat"); }

/// The GNS cluster and file server the program runs against.
class StormGrid {
 public:
  explicit StormGrid(const fs::path& scratch) : scratch_(scratch) {}
  ~StormGrid() { stop(); }
  StormGrid(const StormGrid&) = delete;
  StormGrid& operator=(const StormGrid&) = delete;

  /// Starts the GNS cluster and file server and installs one proxy rule
  /// per input file.
  griddles::Status start() {
    gns::GnsCluster::Options options;
    gns_ = std::make_unique<gns::GnsCluster>(tcp_, options);
    GL_RETURN_IF_ERROR(
        gns_->add_replica("gns-0", net::tcp_endpoint("127.0.0.1", 0)));
    GL_RETURN_IF_ERROR(gns_->start());
    GL_RETURN_IF_ERROR(restart_file_server());
    for (int i = 0; i < kRules; ++i) {
      gns::MappingRule rule;
      rule.host_pattern = kHost;
      rule.path_pattern = (work_dir() / file_name(i)).string();
      rule.mapping.mode = gns::IoMode::kRemoteProxy;
      rule.mapping.remote_endpoint = server_->endpoint().to_string();
      rule.mapping.remote_path = file_name(i);
      GL_RETURN_IF_ERROR(gns_->add_rule(rule));
    }
    return griddles::Status::ok();
  }

  /// A fresh file server on the same port (the first call picks it).
  griddles::Status restart_file_server() {
    stop_file_server();
    server_ = std::make_unique<griddles::remote::FileServer>(
        export_dir(), tcp_, net::tcp_endpoint("127.0.0.1", port_));
    GL_RETURN_IF_ERROR(server_->start());
    GL_ASSIGN_OR_RETURN(port_, server_->endpoint().port());
    return griddles::Status::ok();
  }

  /// Joins every connection thread the file server still holds.
  void stop_file_server() {
    if (server_) server_->stop();
    server_.reset();
  }

  void stop() {
    stop_file_server();
    if (gns_) gns_->stop();
    gns_.reset();
  }

  fs::path export_dir() const { return scratch_ / "export"; }
  fs::path work_dir() const { return scratch_ / "work"; }
  net::TcpTransport& transport() { return tcp_; }
  std::vector<gns::ReplicaAddress> gns_endpoints() const {
    return gns_->endpoints();
  }
  gns::GnsCluster& cluster() { return *gns_; }

 private:
  fs::path scratch_;
  net::TcpTransport tcp_;
  std::unique_ptr<gns::GnsCluster> gns_;
  std::unique_ptr<griddles::remote::FileServer> server_;
  int port_ = 0;
};

/// The program's inputs, written once before set-up is timed.
griddles::Status write_inputs(const fs::path& export_dir) {
  fs::create_directories(export_dir / "in");
  griddles::Bytes payload(kPayload);
  for (int i = 0; i < kRules; ++i) {
    griddles::apps::fill_stream(file_name(i), 0, payload);
    GL_RETURN_IF_ERROR(
        griddles::vfs::write_file((export_dir / file_name(i)).string(),
                                  payload));
  }
  return griddles::Status::ok();
}

struct Program {
  std::string error;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t allocs = 0;
  double peak_rss_mb = 0;  // the process's RSS high-water mark in the run
  std::vector<double> op_s;
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
};

/// One program run: kOpens open/read/close ops on distinct files, each
/// payload checked after the loop.
Program run_program(StormGrid& grid, const std::vector<int>& files,
                    Tracer* tracer, std::uint64_t trace_id) {
  Program program;
  if (auto restarted = grid.restart_file_server(); !restarted.is_ok()) {
    program.error = restarted.to_string();
    return program;
  }
  {
    gns::ReplicatedNameService names(grid.transport());
    for (const gns::ReplicaAddress& replica : grid.gns_endpoints()) {
      names.add_replica(replica.name, replica.endpoint);
    }
    griddles::core::FileMultiplexer::Options fm_options;
    fm_options.host = kHost;
    fm_options.local_root = grid.work_dir().string();
    fm_options.scratch_dir = grid.work_dir().string();
    fm_options.gns = &names;
    fm_options.transport = &grid.transport();
    griddles::core::FileMultiplexer fm(fm_options);

    griddles::Bytes payloads(files.size() * kPayload);
    program.op_s.reserve(files.size());
    program.before = obs::snapshot();
    reset_peak_rss();
    const std::uint64_t allocs0 = allocations();
    const double cpu0 = process_cpu_s();
    const double t0 = wall_s();
    for (std::size_t k = 0; k < files.size() && program.error.empty(); ++k) {
      const double op0 = wall_s();
      ScopedSpan op_span(tracer, "storm.op", trace_id);
      griddles::MutableByteSpan out(payloads.data() + k * kPayload, kPayload);
      griddles::Result<int> fd = [&] {
        ScopedSpan span(tracer, "core.open.proxy", trace_id, op_span.id());
        return fm.open(file_name(files[k]), griddles::vfs::OpenFlags::input());
      }();
      if (!fd.is_ok()) {
        program.error = fd.status().to_string();
        break;
      }
      std::size_t got = 0;
      {
        ScopedSpan span(tracer, "core.read.proxy", trace_id, op_span.id());
        while (got < kPayload) {
          auto n = fm.read(*fd, out.subspan(got));
          if (!n.is_ok() || *n == 0) break;
          got += *n;
        }
      }
      {
        ScopedSpan span(tracer, "core.close.proxy", trace_id, op_span.id());
        if (auto closed = fm.close(*fd); !closed.is_ok()) {
          program.error = closed.to_string();
        }
      }
      if (got != kPayload) program.error = cat("short read of ", got);
      program.op_s.push_back(wall_s() - op0);
    }
    program.wall_s = wall_s() - t0;
    program.cpu_s = process_cpu_s() - cpu0;
    program.allocs = allocations() - allocs0;
    program.peak_rss_mb = peak_rss_mb();
    program.after = obs::snapshot();

    griddles::Bytes want(kPayload);
    for (std::size_t k = 0; k < program.op_s.size() && program.error.empty();
         ++k) {
      griddles::apps::fill_stream(file_name(files[k]), 0, want);
      if (!std::equal(want.begin(), want.end(),
                      payloads.begin() + static_cast<std::ptrdiff_t>(
                                             k * kPayload))) {
        program.error = cat("payload of ", file_name(files[k]), " differs");
      }
    }
  }
  grid.stop_file_server();
  return program;
}

}  // namespace

void run_storm_workload(const Options& options, RunResult& result,
                        Tracer* tracer) {
  obs::SpanCollector::global().enable(false);
  const fs::path inputs = options.scratch / "storm";
  if (auto written = write_inputs(inputs / "export"); !written.is_ok()) {
    result.fail("writing inputs: " + written.to_string());
    return;
  }
  // Program p opens files order[p*kOpens ...], distinct within a program.
  std::vector<int> order(kRules);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(options.seed);
  std::shuffle(order.begin(), order.end(), rng);
  std::uint64_t next_program = 0;
  const auto next_files = [&] {
    std::vector<int> files(kOpens);
    for (int k = 0; k < kOpens; ++k) {
      files[static_cast<std::size_t>(k)] = order[static_cast<std::size_t>(
          (next_program * kOpens + static_cast<std::uint64_t>(k)) % kRules)];
    }
    ++next_program;
    return files;
  };

  HostCorrector host(kHostSensitivity);
  // Set-up: start the GNS cluster and file server over TCP, install
  // kRules rules and run one warm-up program; repeated, median reported.
  Samples setup_s;
  std::unique_ptr<StormGrid> grid;
  Program reference;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (grid) grid->stop();
    const double t0 = wall_s();
    grid = std::make_unique<StormGrid>(inputs);
    const griddles::Status started = grid->start();
    if (started.is_ok()) {
      reference = run_program(*grid, next_files(), nullptr, 0);
    }
    setup_s.add(wall_s() - t0, host.after_interval());
    if (!started.is_ok()) {
      result.fail("storm set-up: " + started.to_string());
      return;
    }
    if (!reference.error.empty()) {
      result.fail("warm-up program: " + reference.error);
      return;
    }
  }

  const double budget = options.trace ? options.seconds * 0.4
                                      : options.seconds;
  const int min_programs = options.trace ? 5 : kMinPrograms;
  Samples makespan_s;
  Samples op_us;
  Samples cpu_ms_per_mb;
  std::vector<double> allocs_per_mb;
  std::vector<double> rpc_per_mb;
  std::vector<double> peak_mb;
  int programs = 0;
  const double start = wall_s();
  while (wall_s() - start < budget || programs < min_programs) {
    ++programs;
    const std::uint64_t trace_id = static_cast<std::uint64_t>(programs);
    const Program p = run_program(*grid, next_files(), tracer, trace_id);
    const std::size_t interval = host.after_interval();
    result.attempted += kOpens;
    std::string error = p.error;
    if (error.empty()) {
      error = count_guard(p.before, p.after, reference.before,
                          reference.after, kOpens * kPayload, 0);
    }
    if (!error.empty()) {
      result.failed += kOpens;
      result.fail(cat("program ", programs, ": ", error));
      continue;
    }
    makespan_s.add(p.wall_s, interval);
    for (const double op : p.op_s) op_us.add(op * 1e6, interval);
    const double mb = static_cast<double>(kOpens * kPayload) / 1e6;
    cpu_ms_per_mb.add(p.cpu_s * 1e3 / mb, interval);
    allocs_per_mb.push_back(static_cast<double>(p.allocs) / mb);
    peak_mb.push_back(p.peak_rss_mb);
    rpc_per_mb.push_back(
        static_cast<double>(
            counter_delta(p.before, p.after, "rpc.client.calls")) / mb);
  }

  if (!options.trace) {
    grid->stop();
    // Spare probes after the last interval complete its window.
    host.after_interval();
    host.after_interval();
    result.notes.push_back(host.summary());
    const std::vector<double> ops = op_us.corrected(host);
    result.notes.push_back(cat(
        "open op (open + 4 KiB read + close): raw p50=",
        percentile(op_us.raw(), 50), "us p99=", percentile(op_us.raw(), 99),
        "us; corrected p50=", percentile(ops, 50), "us p99=",
        percentile(ops, 99), "us; ops=", ops.size()));
    result.notes.push_back("makespan_s raw " + describe(makespan_s.raw()) +
                           "; corrected " +
                           describe(makespan_s.corrected(host)));
    result.notes.push_back("cpu_ms_per_MB raw " +
                           describe(cpu_ms_per_mb.raw()) + "; corrected " +
                           describe(cpu_ms_per_mb.corrected(host)));
    result.notes.push_back("peak_rss_mb per run " + describe(peak_mb));
    result.add("makespan_s", median(makespan_s.corrected(host)), "s");
    result.add("cpu_ms_per_MB", median(cpu_ms_per_mb.corrected(host)),
               "ms/MB");
    result.add("peak_rss_mb", mean(peak_mb), "MB");
    result.add("setup_s", median(setup_s.corrected(host)), "s");
    return;
  }

  // Traced run: span-collector overhead on whole programs.
  Samples off_s;
  Samples on_s;
  for (int pair = 0; pair < 5; ++pair) {
    for (const bool on : {false, true}) {
      obs::SpanCollector::global().enable(on);
      const Program p = run_program(*grid, next_files(), nullptr, 0);
      obs::SpanCollector::global().enable(false);
      (void)obs::SpanCollector::global().drain();
      const std::size_t interval = host.after_interval();
      if (p.error.empty()) (on ? on_s : off_s).add(p.wall_s, interval);
    }
  }
  grid->stop();
  result.add("workflow.fixed_ms", fixed_overhead_ms(options, host, tracer),
             "ms");
  const double off = median(off_s.corrected(host));
  result.add("obs.span_overhead_pct",
             100.0 * (median(on_s.corrected(host)) - off) / off, "%");
  result.add("bench.trace_overhead_pct",
             100.0 * (median(makespan_s.corrected(host)) - off) / off, "%");
  result.notes.push_back(host.summary());
  result.add("net.rpc_calls_per_MB", median(rpc_per_mb), "count");
  result.add("alloc.per_MB", median(allocs_per_mb), "count");
  result.add("host.probe_ms", median(host.probe_cpu_times()) * 1e3, "ms");
  result.add("host.raw_makespan_s", median(makespan_s.raw()), "s");
}

}  // namespace perfbench
