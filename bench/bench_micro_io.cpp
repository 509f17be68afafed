// Micro benchmarks of the IO mechanisms behind §3/§4: local files, remote
// proxy reads, staged copies, and Grid Buffer streams (one block in
// flight vs pipelined runs; binary vs SOAP framing appears in
// bench_ablation_codec).
#include <benchmark/benchmark.h>

#include <thread>

#include "src/common/tempfile.h"
#include "src/gridbuffer/client.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"
#include "src/remote/copier.h"
#include "src/remote/file_server.h"
#include "src/remote/remote_client.h"
#include "src/vfs/local_client.h"

namespace {

using namespace griddles;

struct Env {
  Env()
      : scratch(*TempDir::create("bench-micro")), network(clock),
        transport(network.transport("dione")),
        server_transport(network.transport("dione")),
        file_server(scratch.file("export"), *server_transport,
                    net::inproc_endpoint("dione", "fs")),
        buffer_server(scratch.file("gbuf").string(), *server_transport,
                      net::inproc_endpoint("dione", "gbuf")) {
    (void)file_server.start();
    (void)buffer_server.start();
  }

  TempDir scratch;
  RealClock clock;
  net::InProcNetwork network;
  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<net::Transport> server_transport;
  remote::FileServer file_server;
  gridbuffer::GridBufferServer buffer_server;
};

Env& env() {
  static Env instance;
  return instance;
}

void BM_LocalFileWrite(benchmark::State& state) {
  const std::size_t total = 1 << 20;
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  Bytes data(chunk, std::byte{0x42});
  const std::string path = env().scratch.file("local.bin").string();
  for (auto _ : state) {
    auto file = vfs::LocalFileClient::open(path, vfs::OpenFlags::output());
    for (std::size_t done = 0; done < total; done += chunk) {
      benchmark::DoNotOptimize(file.value()->write(data));
    }
    (void)file.value()->close();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_LocalFileWrite)->Arg(4096)->Arg(65536);

void BM_RemoteProxyRead(benchmark::State& state) {
  const std::size_t total = 1 << 20;
  Bytes payload(total, std::byte{0x17});
  (void)vfs::write_file(
      (env().file_server.root() / "proxy.bin").string(), payload);
  Bytes buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto file = remote::RemoteFileClient::open(
        *env().transport, env().file_server.endpoint(), "proxy.bin",
        vfs::OpenFlags::input());
    std::size_t done = 0;
    while (done < total) {
      auto got = file.value()->read({buffer.data(), buffer.size()});
      if (!got.is_ok() || *got == 0) break;
      done += *got;
    }
    (void)file.value()->close();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_RemoteProxyRead)->Arg(4096)->Arg(65536);

void BM_StagedCopyFetch(benchmark::State& state) {
  const std::size_t total = 4 << 20;
  Bytes payload(total, std::byte{0x31});
  (void)vfs::write_file(
      (env().file_server.root() / "copy.bin").string(), payload);
  const std::string local = env().scratch.file("staged.bin").string();
  const int streams = static_cast<int>(state.range(0));
  for (auto _ : state) {
    remote::FileCopier::Options options;
    options.parallel_streams = streams;
    remote::FileCopier copier(*env().transport, env().clock, options);
    auto stats =
        copier.fetch(env().file_server.endpoint(), "copy.bin", local);
    benchmark::DoNotOptimize(stats);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_StagedCopyFetch)->Arg(1)->Arg(4);

void BM_GridBufferStream(benchmark::State& state) {
  const std::size_t total = 1 << 20;
  const bool one_block = state.range(0) != 0;
  static int run = 0;
  Bytes chunk(65536, std::byte{0x66});
  for (auto _ : state) {
    const std::string channel = "bench/stream-" + std::to_string(run++);
    gridbuffer::GridBufferWriter::Options writer_options;
    if (one_block) {
      writer_options.window_blocks = 1;
      writer_options.flusher_threads = 1;
    }
    writer_options.channel.cache_enabled = false;
    auto writer = gridbuffer::GridBufferWriter::open(
        *env().transport, env().buffer_server.endpoint(), channel,
        writer_options);
    std::thread reader_thread([&] {
      gridbuffer::GridBufferReader::Options reader_options;
      reader_options.channel.cache_enabled = false;
      auto reader = gridbuffer::GridBufferReader::open(
          *env().transport, env().buffer_server.endpoint(), channel,
          reader_options);
      Bytes buffer(65536);
      while (true) {
        auto got = reader.value()->read({buffer.data(), buffer.size()});
        if (!got.is_ok() || *got == 0) break;
      }
      (void)reader.value()->close();
    });
    for (std::size_t done = 0; done < total; done += chunk.size()) {
      (void)writer.value()->write(chunk);
    }
    (void)writer.value()->close();
    reader_thread.join();
    (void)env().buffer_server.store().remove(channel);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total));
  state.SetLabel(one_block ? "one-block-in-flight" : "pipelined-runs");
}
BENCHMARK(BM_GridBufferStream)->Arg(0)->Arg(1);

}  // namespace
