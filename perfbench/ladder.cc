// The per-layer ladder of the traced run: each rung times one public
// entry point of one layer under its own span (the rung's span is the
// parent, each call or batch of calls a child), corrected by the host
// probe run after the rung like every end-to-end time. Rungs run on the
// in-process network with unlimited links unless they name TCP.

#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "perfbench/bench.h"
#include "src/apps/kernel.h"
#include "src/common/clock.h"
#include "src/common/strings.h"
#include "src/core/multiplexer.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/gridbuffer/client.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"
#include "src/net/rpc.h"
#include "src/net/soap.h"
#include "src/net/tcp.h"
#include "src/remote/copier.h"
#include "src/remote/file_server.h"
#include "src/remote/remote_client.h"
#include "src/vfs/local_client.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace gb = griddles::gridbuffer;
namespace gns = griddles::gns;
namespace net = griddles::net;
using griddles::Bytes;
using griddles::Status;
using griddles::strings::cat;

namespace {

constexpr std::size_t k64KiB = 64 * 1024;
constexpr int kStreamBlocks = 128;  // 8 MiB per stream
constexpr int kGnsRules = 4000;     // the open storm's rule count

/// Runs rungs and records their spans and corrected values.
class Ladder {
 public:
  Ladder(const Options& options, RunResult& result, Tracer& tracer)
      : options_(options), result_(result), tracer_(tracer) {}

  /// Times `reps` samples of `op` (each covering `batch` calls) under a
  /// rung span; returns the corrected median seconds per call, or a
  /// negative value after recording a failure.
  double time(const std::string& name, int reps, int batch,
              const std::function<Status(int)>& op) {
    const std::uint64_t trace_id = next_trace_++;
    std::vector<double> samples;
    {
      ScopedSpan rung(&tracer_, "rung:" + name, trace_id);
      for (int i = 0; i < reps; ++i) {
        const double t0 = wall_s();
        Status status;
        {
          ScopedSpan call(&tracer_, name, trace_id, rung.id());
          for (int b = 0; b < batch && status.is_ok(); ++b) {
            status = op(i * batch + b);
          }
        }
        samples.push_back((wall_s() - t0) / batch);
        if (!status.is_ok()) {
          result_.fail(cat("rung ", name, ": ", status.to_string()));
          return -1;
        }
      }
    }
    return median(samples) * factor();
  }

  void add(const std::string& name, double value, const std::string& unit) {
    if (value >= 0) result_.add(name, value, unit);
  }

  /// Marks the host-speed factor for a rung timed by hand.
  double factor() { return host_.factor(host_.after_interval()); }
  std::uint64_t trace_id() { return next_trace_++; }
  Tracer& tracer() { return tracer_; }
  RunResult& result() { return result_; }
  fs::path dir(const std::string& name) const {
    const fs::path path = options_.scratch / "ladder" / name;
    fs::create_directories(path);
    return path;
  }

 private:
  const Options& options_;
  RunResult& result_;
  Tracer& tracer_;
  HostCorrector host_;
  std::uint64_t next_trace_ = 1u << 20;  // apart from workload trace ids
};

/// An echo peer on a raw transport connection: returns every message.
class EchoPeer {
 public:
  EchoPeer(net::Transport& transport, const net::Endpoint& bind) {
    auto listener = transport.listen(bind);
    if (listener.is_ok()) listener_ = std::move(*listener);
    if (listener_) {
      thread_ = std::thread([this] {
        while (true) {
          auto conn = listener_->accept();
          if (!conn.is_ok()) return;
          while (true) {
            auto message = (*conn)->recv();
            if (!message.is_ok() || !(*conn)->send(*message).is_ok()) break;
          }
        }
      });
    }
  }
  ~EchoPeer() {
    if (listener_) listener_->close();
    if (thread_.joinable()) thread_.join();
  }
  EchoPeer(const EchoPeer&) = delete;
  EchoPeer& operator=(const EchoPeer&) = delete;
  bool ok() const { return listener_ != nullptr; }
  net::Endpoint endpoint() const { return listener_->bound_endpoint(); }

 private:
  std::unique_ptr<net::Listener> listener_;
  std::thread thread_;
};

/// Send/recv round trip of `bytes` on one connection to an echo peer.
void transport_rungs(Ladder& ladder) {
  const auto rtt = [&](net::Transport& client, net::Transport& server,
                       const net::Endpoint& bind, std::size_t bytes,
                       const std::string& name, int reps) {
    EchoPeer echo(server, bind);
    if (!echo.ok()) return ladder.result().fail(name + ": listen failed");
    auto conn = client.connect(echo.endpoint());
    if (!conn.is_ok()) return ladder.result().fail(name + ": connect failed");
    const Bytes message(bytes);
    ladder.add(name, ladder.time(name, reps, 1, [&](int) -> Status {
      GL_RETURN_IF_ERROR((*conn)->send(message));
      return (*conn)->recv().status();
    }) * 1e6, "us");
    (*conn)->close();
  };
  griddles::RealClock clock;
  net::InProcNetwork network(clock);
  auto a = network.transport("a");
  auto b = network.transport("b");
  rtt(*a, *b, net::inproc_endpoint("b", "echo"), k64KiB,
      "net.inproc_rtt_us.64KiB", 400);
  net::TcpTransport tcp;
  rtt(tcp, tcp, net::tcp_endpoint("127.0.0.1", 0), 64, "net.tcp_rtt_us.64B",
      400);

  EchoPeer sink(tcp, net::tcp_endpoint("127.0.0.1", 0));
  if (!sink.ok()) return ladder.result().fail("tcp listen failed");
  ladder.add("net.tcp_connect_us",
             ladder.time("net.tcp_connect_us", 200, 1, [&](int) -> Status {
               GL_ASSIGN_OR_RETURN(auto conn, tcp.connect(sink.endpoint()));
               conn->close();
               return Status::ok();
             }) * 1e6, "us");
}

void codec_rungs(Ladder& ladder) {
  for (const auto& [bytes, label] :
       {std::pair<std::size_t, const char*>{4096, "4KiB"},
        {k64KiB, "64KiB"}}) {
    net::RpcFrame frame;
    frame.id = 7;
    frame.method = 2;
    frame.payload.assign(bytes, std::byte{0x5a});
    const std::string name = cat("net.codec_ns_per_KiB.", label);
    const int batch = bytes == 4096 ? 200 : 20;
    const double per_call = ladder.time(name, 30, batch, [&](int) -> Status {
      const Bytes wire = net::encode_frame(frame, net::WireFormat::kBinary);
      return net::decode_frame(wire, net::WireFormat::kBinary).status();
    });
    ladder.add(name, per_call * 1e9 / (static_cast<double>(bytes) / 1024),
               "ns/KiB");
  }
}

/// An RpcServer with an admitted echo method.
struct EchoServer {
  EchoServer(net::Transport& transport, net::Endpoint bind)
      : rpc(transport, std::move(bind)) {
    rpc.register_method(1, [](griddles::ByteSpan request,
                              const net::RpcContext&) -> griddles::Result<Bytes> {
      return Bytes(request.begin(), request.end());
    });
  }
  ~EchoServer() { rpc.stop(); }
  net::RpcServer rpc;
};

void rpc_rungs(Ladder& ladder) {
  griddles::RealClock clock;
  net::InProcNetwork network(clock);
  auto a = network.transport("a");
  auto b = network.transport("b");
  EchoServer inproc_server(*b, net::inproc_endpoint("b", "echo-rpc"));
  if (!inproc_server.rpc.start().is_ok()) {
    return ladder.result().fail("rpc server start failed");
  }
  net::RpcClient client(*a, inproc_server.rpc.endpoint());
  for (const auto& [bytes, label] :
       {std::pair<std::size_t, const char*>{4096, "4KiB"},
        {k64KiB, "64KiB"}}) {
    const Bytes request(bytes);
    const std::string name = cat("net.rpc_call_us.", label);
    const std::uint64_t allocs0 = allocations();
    constexpr int kCalls = 400;
    ladder.add(name, ladder.time(name, kCalls, 1, [&](int) -> Status {
      return client.call(1, request).status();
    }) * 1e6, "us");
    if (bytes == 4096) {
      ladder.add("alloc.per_rpc_call",
                 static_cast<double>(allocations() - allocs0) / kCalls,
                 "count");
    }
  }

  net::TcpTransport tcp;
  EchoServer tcp_server(tcp, net::tcp_endpoint("127.0.0.1", 0));
  if (!tcp_server.rpc.start().is_ok()) {
    return ladder.result().fail("tcp rpc server start failed");
  }
  net::RpcClient tcp_client(tcp, tcp_server.rpc.endpoint());
  const Bytes small(64);
  ladder.add("net.rpc_call_us.tcp_64B",
             ladder.time("net.rpc_call_us.tcp_64B", 400, 1, [&](int) -> Status {
               return tcp_client.call(1, small).status();
             }) * 1e6, "us");

  // Memory an RpcServer keeps per served connection until stop().
  constexpr int kConnections = 400;
  const double rss0 = rss_mb();
  ladder.time("net.rpc_server_conn_cycle", kConnections, 1, [&](int) -> Status {
    net::RpcClient once(tcp, tcp_server.rpc.endpoint());
    return once.call(1, small).status();
  });
  ladder.add("net.rpc_server_kb_per_conn",
             (rss_mb() - rss0) * 1000.0 / kConnections, "KB");
}

void gns_rungs(Ladder& ladder) {
  net::TcpTransport tcp;
  gns::GnsCluster cluster(tcp, gns::GnsCluster::Options{});
  if (!cluster.add_replica("gns-0", net::tcp_endpoint("127.0.0.1", 0)).is_ok() ||
      !cluster.start().is_ok()) {
    return ladder.result().fail("gns cluster start failed");
  }
  const auto path = [](int i) { return cat("/ladder/gns/f", 100000 + i); };
  ladder.add("gns.add_rule_us",
             ladder.time("gns.add_rule_us", kGnsRules, 1, [&](int i) {
               gns::MappingRule rule;
               rule.host_pattern = "ladder";
               rule.path_pattern = path(i);
               rule.mapping.mode = gns::IoMode::kRemoteProxy;
               rule.mapping.remote_endpoint = "tcp://127.0.0.1:9";
               rule.mapping.remote_path = path(i);
               return cluster.add_rule(rule);
             }) * 1e6, "us");

  gns::ReplicatedNameService names(tcp);
  for (const gns::ReplicaAddress& replica : cluster.endpoints()) {
    names.add_replica(replica.name, replica.endpoint);
  }
  const auto lookup = [&](int i) -> Status {
    GL_ASSIGN_OR_RETURN(const auto mapping, names.lookup("ladder", path(i)));
    return mapping ? Status::ok() : griddles::not_found(path(i));
  };
  // Every cold lookup names a path this client has not asked for yet.
  ladder.add("gns.lookup_cold_us",
             ladder.time("gns.lookup_cold_us", 500, 1, lookup) * 1e6, "us");
  ladder.add("gns.lookup_warm_us",
             ladder.time("gns.lookup_warm_us", 500, 1,
                         [&](int) { return lookup(0); }) * 1e6, "us");
  cluster.stop();
}

void remote_rungs(Ladder& ladder) {
  // Proxy open + 4 KiB read + close over TCP, as one storm op minus the FM.
  const fs::path root = ladder.dir("proxy");
  constexpr int kFiles = 300;
  Bytes payload(4096);
  for (int i = 0; i < kFiles; ++i) {
    griddles::apps::fill_stream(cat("p", i), 0, payload);
    if (!griddles::vfs::write_file((root / cat("p", i)).string(), payload)
             .is_ok()) {
      return ladder.result().fail("writing proxy inputs failed");
    }
  }
  net::TcpTransport tcp;
  {
    griddles::remote::FileServer server(root, tcp,
                                        net::tcp_endpoint("127.0.0.1", 0));
    if (!server.start().is_ok()) {
      return ladder.result().fail("file server start failed");
    }
    Bytes out(4096);
    ladder.add("remote.proxy_open_read_us",
               ladder.time("remote.proxy_open_read_us", kFiles, 1,
                           [&](int i) -> Status {
                 GL_ASSIGN_OR_RETURN(
                     auto file, griddles::remote::RemoteFileClient::open(
                                    tcp, server.endpoint(), cat("p", i),
                                    griddles::vfs::OpenFlags::input()));
                 GL_ASSIGN_OR_RETURN(const std::size_t n, file->read(out));
                 GL_RETURN_IF_ERROR(file->close());
                 return n == out.size() ? Status::ok()
                                        : griddles::io_error("short read");
               }) * 1e6, "us");
    server.stop();
  }

  // Staged copy with the runner's defaults (1 MiB chunks, 4 streams).
  griddles::RealClock clock;
  net::InProcNetwork network(clock);
  auto a = network.transport("a");
  auto b = network.transport("b");
  const fs::path big_dir = ladder.dir("fetch");
  constexpr std::size_t kBigBytes = 8u << 20;
  Bytes big(kBigBytes);
  griddles::apps::fill_stream("big", 0, big);
  if (!griddles::vfs::write_file((big_dir / "big.dat").string(), big).is_ok()) {
    return ladder.result().fail("writing fetch input failed");
  }
  griddles::remote::FileServer server(big_dir, *b,
                                      net::inproc_endpoint("b", "fs"));
  if (!server.start().is_ok()) {
    return ladder.result().fail("file server start failed");
  }
  griddles::remote::FileCopier copier(*a, clock);
  const fs::path local = ladder.dir("fetched") / "big.dat";
  ladder.add("remote.fetch_ms_per_MB",
             ladder.time("remote.fetch_ms_per_MB", 6, 1, [&](int) {
               return copier.fetch(server.endpoint(), "big.dat", local.string())
                   .status();
             }) * 1e3 / (static_cast<double>(kBigBytes) / 1e6), "ms/MB");
  server.stop();
}

gb::GridBufferWriter::Options writer_options() {
  gb::GridBufferWriter::Options options;
  options.window_blocks = 16;  // the runner's writer_window
  options.flusher_threads = 4;
  return options;
}

/// Writes kStreamBlocks x 64 KiB into `channel` on a helper thread.
std::thread start_writer(net::Transport& transport, net::Endpoint server,
                         std::string channel, Status& status) {
  return std::thread([&transport, server, channel, &status] {
    auto writer = gb::GridBufferWriter::open(transport, server, channel,
                                             writer_options());
    if (!writer.is_ok()) {
      status = writer.status();
      return;
    }
    Bytes block(k64KiB);
    for (int i = 0; i < kStreamBlocks && status.is_ok(); ++i) {
      griddles::apps::fill_stream(channel, static_cast<std::uint64_t>(i) * k64KiB,
                                  block);
      status = (*writer)->write(block);
    }
    if (status.is_ok()) status = (*writer)->close();
  });
}

/// Reads a stream to EOF in 64 KiB reads, one span per read.
Status drain(Ladder& ladder, gb::GridBufferReader& reader,
             const std::string& span_name, std::uint64_t trace_id,
             std::uint64_t parent) {
  Bytes out(k64KiB);
  std::uint64_t total = 0;
  while (true) {
    ScopedSpan span(&ladder.tracer(), span_name, trace_id, parent);
    GL_ASSIGN_OR_RETURN(const std::size_t n, reader.read(out));
    if (n == 0) break;
    total += n;
  }
  return total == kStreamBlocks * k64KiB
             ? Status::ok()
             : griddles::data_loss(cat("stream ended at ", total));
}

void gridbuffer_rungs(Ladder& ladder) {
  griddles::RealClock clock;
  net::InProcNetwork network(clock);
  auto a = network.transport("a");
  auto b = network.transport("b");
  auto c = network.transport("c");
  gb::GridBufferServer server(ladder.dir("gbuf").string(), *b,
                              net::inproc_endpoint("b", "gbuf"));
  gb::GridBufferServer relay_target(ladder.dir("gbuf2").string(), *c,
                                    net::inproc_endpoint("c", "gbuf"));
  if (!server.start().is_ok() || !relay_target.start().is_ok()) {
    return ladder.result().fail("grid buffer server start failed");
  }
  constexpr double kBlocks = kStreamBlocks;
  std::vector<double> stream_s;
  std::vector<double> reread_s;
  const std::uint64_t trace_id = ladder.trace_id();
  Status failure;
  {
    ScopedSpan rung(&ladder.tracer(), "rung:gridbuffer.stream", trace_id);
    for (int rep = 0; rep < 5 && failure.is_ok(); ++rep) {
      const std::string channel = cat("stream-", rep);
      Status written;
      gb::GridBufferReader::Options reader_options;
      auto reader =
          gb::GridBufferReader::open(*b, server.endpoint(), channel,
                                     reader_options);
      if (!reader.is_ok()) {
        failure = reader.status();
        break;
      }
      const double t0 = wall_s();
      std::thread writer = start_writer(*a, server.endpoint(), channel, written);
      failure = drain(ladder, **reader, "gridbuffer.stream_read", trace_id,
                      rung.id());
      writer.join();
      stream_s.push_back(wall_s() - t0);
      if (failure.is_ok()) failure = written;
      if (!failure.is_ok()) break;
      const double t1 = wall_s();
      auto rewound = (*reader)->seek(0, 0);
      failure = rewound.is_ok()
                    ? drain(ladder, **reader, "gridbuffer.reread_read",
                            trace_id, rung.id())
                    : rewound.status();
      reread_s.push_back(wall_s() - t1);
      (void)(*reader)->close();
    }
  }
  const double factor = ladder.factor();
  if (!failure.is_ok()) {
    return ladder.result().fail("gridbuffer rung: " + failure.to_string());
  }
  ladder.add("gridbuffer.stream_us_per_64KiB",
             median(stream_s) * factor / kBlocks * 1e6, "us");
  ladder.add("gridbuffer.reread_us_per_64KiB",
             median(reread_s) * factor / kBlocks * 1e6, "us");

  // 1->2 broadcast: the producer writes into `server`, which relays every
  // block to `relay_target`; one reader at each.
  std::vector<double> broadcast_s;
  const std::uint64_t cast_trace = ladder.trace_id();
  {
    ScopedSpan rung(&ladder.tracer(), "rung:multicast.broadcast", cast_trace);
    for (int rep = 0; rep < 5 && failure.is_ok(); ++rep) {
      const std::string channel = cat("cast-", rep);
      gb::ChannelConfig config;
      griddles::multicast::RelayNode child;
      child.host = "c";
      child.endpoint = relay_target.endpoint().to_string();
      child.path = channel;
      child.readers = 1;
      server.set_broadcast(channel, config, {child});
      auto near = gb::GridBufferReader::open(*b, server.endpoint(), channel);
      auto far = gb::GridBufferReader::open(*c, relay_target.endpoint(),
                                            channel);
      if (!near.is_ok() || !far.is_ok()) {
        failure = near.is_ok() ? far.status() : near.status();
        break;
      }
      Status written;
      Status far_read;
      const double t0 = wall_s();
      std::thread writer = start_writer(*a, server.endpoint(), channel, written);
      std::thread far_reader([&] {
        Bytes out(k64KiB);
        std::uint64_t total = 0;
        while (far_read.is_ok()) {
          auto n = (*far)->read(out);
          if (!n.is_ok()) far_read = n.status();
          if (!n.is_ok() || *n == 0) break;
          total += *n;
        }
        if (far_read.is_ok() && total != kStreamBlocks * k64KiB) {
          far_read = griddles::data_loss(cat("relayed stream ended at ", total));
        }
      });
      failure = drain(ladder, **near, "multicast.broadcast_read", cast_trace,
                      rung.id());
      writer.join();
      far_reader.join();
      broadcast_s.push_back(wall_s() - t0);
      if (failure.is_ok()) failure = written;
      if (failure.is_ok()) failure = far_read;
      (void)(*near)->close();
      (void)(*far)->close();
    }
  }
  const double cast_factor = ladder.factor();
  server.stop();
  relay_target.stop();
  if (!failure.is_ok()) {
    return ladder.result().fail("broadcast rung: " + failure.to_string());
  }
  ladder.add("multicast.broadcast_us_per_64KiB",
             median(broadcast_s) * cast_factor / kBlocks * 1e6, "us");
}

/// FM opens per mode, FM reads over a buffer and local IO with and
/// without the FM, all resolved through an in-process GNS.
void core_rungs(Ladder& ladder) {
  griddles::RealClock clock;
  net::InProcNetwork network(clock);
  auto a = network.transport("a");
  auto b = network.transport("b");
  auto g = network.transport("g");
  gns::GnsCluster cluster(*g, gns::GnsCluster::Options{});
  const fs::path files = ladder.dir("core-files");
  const fs::path work = ladder.dir("core-work");
  griddles::remote::FileServer file_server(files, *b,
                                           net::inproc_endpoint("b", "fs"));
  gb::GridBufferServer buffers(ladder.dir("core-gbuf").string(), *b,
                               net::inproc_endpoint("b", "gbuf"));
  if (!cluster.add_replica("gns-0", net::inproc_endpoint("g", "gns")).is_ok() ||
      !cluster.start().is_ok() || !file_server.start().is_ok() ||
      !buffers.start().is_ok()) {
    return ladder.result().fail("core rung services failed to start");
  }
  constexpr int kOpens = 200;
  Bytes payload(4096);
  Status installed;
  for (int i = 0; i < kOpens && installed.is_ok(); ++i) {
    installed = griddles::vfs::write_file((files / cat("r", i)).string(),
                                          payload);
    gns::MappingRule rule;
    rule.host_pattern = "a";
    rule.path_pattern = (work / cat("proxy", i)).string();
    rule.mapping.mode = gns::IoMode::kRemoteProxy;
    rule.mapping.remote_endpoint = file_server.endpoint().to_string();
    rule.mapping.remote_path = cat("r", i);
    if (installed.is_ok()) installed = cluster.add_rule(rule);
    rule.path_pattern = (work / cat("local", i)).string();
    rule.mapping = gns::FileMapping{};
    if (installed.is_ok()) installed = cluster.add_rule(rule);
    rule.path_pattern = (work / cat("buffer", i)).string();
    rule.mapping.mode = gns::IoMode::kGridBuffer;
    rule.mapping.channel = cat("core-", i);
    rule.mapping.buffer_endpoint = buffers.endpoint().to_string();
    if (installed.is_ok()) installed = cluster.add_rule(rule);
    if (installed.is_ok()) {
      installed = griddles::vfs::write_file((work / cat("local", i)).string(),
                                            payload);
    }
  }
  gns::MappingRule stream_rule;
  stream_rule.host_pattern = "*";
  stream_rule.path_pattern = (work / "stream").string();
  stream_rule.mapping.mode = gns::IoMode::kGridBuffer;
  stream_rule.mapping.channel = "core-stream";
  stream_rule.mapping.buffer_endpoint = buffers.endpoint().to_string();
  if (installed.is_ok()) installed = cluster.add_rule(stream_rule);
  if (!installed.is_ok()) {
    return ladder.result().fail("core rung set-up: " + installed.to_string());
  }

  gns::ReplicatedNameService names(*a);
  for (const gns::ReplicaAddress& replica : cluster.endpoints()) {
    names.add_replica(replica.name, replica.endpoint);
  }
  griddles::core::FileMultiplexer::Options fm_options;
  fm_options.host = "a";
  fm_options.local_root = work.string();
  fm_options.scratch_dir = work.string();
  fm_options.gns = &names;
  fm_options.transport = a.get();
  fm_options.buffer.writer_window_blocks = 16;
  griddles::core::FileMultiplexer fm(fm_options);

  for (const auto& [mode, flags] :
       {std::pair<const char*, griddles::vfs::OpenFlags>{
            "local", griddles::vfs::OpenFlags::input()},
        {"proxy", griddles::vfs::OpenFlags::input()},
        {"buffer", griddles::vfs::OpenFlags::output()}}) {
    std::vector<int> opened;
    const std::string name = cat("core.open_us.", mode);
    ladder.add(name, ladder.time(name, kOpens, 1, [&](int i) -> Status {
      GL_ASSIGN_OR_RETURN(const int fd, fm.open(cat(mode, i), flags));
      opened.push_back(fd);
      return Status::ok();
    }) * 1e6, "us");
    for (const int fd : opened) (void)fm.close(fd);
  }

  // FM reads over a buffer: a writer thread streams through the FM too.
  {
    Status written;
    std::thread writer([&] {
      auto fd = fm.open("stream", griddles::vfs::OpenFlags::output());
      if (!fd.is_ok()) {
        written = fd.status();
        return;
      }
      Bytes block(k64KiB);
      for (int i = 0; i < kStreamBlocks && written.is_ok(); ++i) {
        auto n = fm.write(*fd, block);
        if (!n.is_ok()) written = n.status();
      }
      const Status closed = fm.close(*fd);
      if (written.is_ok()) written = closed;
    });
    auto fd = fm.open("stream", griddles::vfs::OpenFlags::input());
    Bytes out(k64KiB);
    const double per_read =
        fd.is_ok() ? ladder.time("core.read_us_per_64KiB.buffer",
                                 kStreamBlocks, 1, [&](int) -> Status {
                       GL_ASSIGN_OR_RETURN(const std::size_t n,
                                           fm.read(*fd, out));
                       return n == out.size()
                                  ? Status::ok()
                                  : griddles::data_loss("short buffer read");
                     })
                   : -1;
    writer.join();
    if (fd.is_ok()) (void)fm.close(*fd);
    if (!fd.is_ok() || !written.is_ok()) {
      ladder.result().fail("core buffer stream failed");
    } else {
      ladder.add("core.read_us_per_64KiB.buffer", per_read * 1e6, "us");
    }
  }

  // 16 MiB of local writes through the FM, then with LocalFileClient
  // directly, then read back.
  constexpr int kLocalBlocks = 256;
  const double local_mb = kLocalBlocks * static_cast<double>(k64KiB) / 1e6;
  Bytes block(k64KiB);
  ladder.add("core.write_ms_per_MB.local",
             ladder.time("core.write_ms_per_MB.local", 5, 1, [&](int i) -> Status {
               GL_ASSIGN_OR_RETURN(const int fd,
                                   fm.open(cat("out", i),
                                           griddles::vfs::OpenFlags::output()));
               for (int k = 0; k < kLocalBlocks; ++k) {
                 GL_RETURN_IF_ERROR(fm.write(fd, block).status());
               }
               return fm.close(fd);
             }) * 1e3 / local_mb, "ms/MB");
  const auto vfs_path = [&](int i) { return (work / cat("vfs", i)).string(); };
  ladder.add("vfs.write_ms_per_MB",
             ladder.time("vfs.write_ms_per_MB", 5, 1, [&](int i) -> Status {
               GL_ASSIGN_OR_RETURN(
                   auto file, griddles::vfs::LocalFileClient::open(
                                  vfs_path(i), griddles::vfs::OpenFlags::output()));
               for (int k = 0; k < kLocalBlocks; ++k) {
                 GL_RETURN_IF_ERROR(file->write(block).status());
               }
               return file->close();
             }) * 1e3 / local_mb, "ms/MB");
  ladder.add("vfs.read_ms_per_MB",
             ladder.time("vfs.read_ms_per_MB", 5, 1, [&](int i) -> Status {
               GL_ASSIGN_OR_RETURN(
                   auto file, griddles::vfs::LocalFileClient::open(
                                  vfs_path(i), griddles::vfs::OpenFlags::input()));
               for (int k = 0; k < kLocalBlocks; ++k) {
                 GL_RETURN_IF_ERROR(file->read(block).status());
               }
               return file->close();
             }) * 1e3 / local_mb, "ms/MB");

  buffers.stop();
  file_server.stop();
  cluster.stop();
}

void apps_rungs(Ladder& ladder) {
  Bytes block(1u << 20);
  ladder.add("apps.fill_ms_per_MB",
             ladder.time("apps.fill_ms_per_MB", 20, 1, [&](int i) {
               griddles::apps::fill_stream(
                   "FILL.DAT", static_cast<std::uint64_t>(i) * block.size(),
                   block);
               return Status::ok();
             }) * 1e3 / (static_cast<double>(block.size()) / 1e6), "ms/MB");
}

}  // namespace

void run_ladder(const Options& options, RunResult& result, Tracer& tracer) {
  Ladder ladder(options, result, tracer);
  transport_rungs(ladder);
  codec_rungs(ladder);
  rpc_rungs(ladder);
  gns_rungs(ladder);
  remote_rungs(ladder);
  gridbuffer_rungs(ladder);
  core_rungs(ladder);
  apps_rungs(ladder);
  std::error_code ec;
  fs::remove_all(options.scratch / "ladder", ec);
}

}  // namespace perfbench
