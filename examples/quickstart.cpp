// Quickstart: one program, three IO configurations, zero code changes.
//
// A tiny "legacy application" writes a result file and a second one reads
// it back — through the File Multiplexer's C-style shim (glio_*), exactly
// the calls an LD_PRELOAD interposer would redirect. We run the pair
// three times:
//
//   1. plain local files (no GNS rule at all),
//   2. rerouted to a Grid Buffer stream (reader overlaps the writer),
//   3. rerouted to a remote file server (staged copy).
//
// Only the GNS mapping changes between runs — the paper's core claim.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/common/tempfile.h"
#include "src/core/multiplexer.h"
#include "src/core/posix_shim.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"
#include "src/remote/file_server.h"

using namespace griddles;

namespace {

// ---- The "legacy application": knows nothing about the grid. ----------
bool legacy_writer(const char* path) {
  const int fd = core::glio_open(path, "w");
  if (fd < 0) return false;
  for (int i = 0; i < 1000; ++i) {
    char line[64];
    const int n = std::snprintf(line, sizeof(line),
                                "timestep %04d: stress=%.3f\n", i,
                                i * 0.25);
    if (core::glio_write(fd, line, static_cast<std::size_t>(n)) != n) {
      return false;
    }
  }
  return core::glio_close(fd) == 0;
}

bool legacy_reader(const char* path, int* lines_out) {
  const int fd = core::glio_open(path, "r");
  if (fd < 0) return false;
  int lines = 0;
  char buffer[4096];
  while (true) {
    const std::int64_t n = core::glio_read(fd, buffer, sizeof(buffer));
    if (n < 0) return false;
    if (n == 0) break;
    for (std::int64_t i = 0; i < n; ++i) {
      if (buffer[i] == '\n') ++lines;
    }
  }
  *lines_out = lines;
  return core::glio_close(fd) == 0;
}
// -----------------------------------------------------------------------

int fail(const char* what) {
  std::fprintf(stderr, "FAILED: %s (%s)\n", what, core::glio_last_error());
  return 1;
}

}  // namespace

int main() {
  auto scratch = TempDir::create("quickstart");
  if (!scratch.is_ok()) return 1;
  RealClock clock;
  net::InProcNetwork network(clock);

  // Shared services: a GNS, a Grid Buffer server, a remote file server.
  auto gns_transport = network.transport("dione");
  gns::GnsCluster gns(*gns_transport, gns::GnsCluster::Options{});
  if (!gns.add_replica("gns-0", net::inproc_endpoint("dione", "gns"))
           .is_ok() ||
      !gns.start().is_ok()) {
    return 1;
  }

  gridbuffer::GridBufferServer buffer_server(
      scratch->file("gbuf").string(), *gns_transport,
      net::inproc_endpoint("dione", "gbuf"));
  if (!buffer_server.start().is_ok()) return 1;

  remote::FileServer file_server(scratch->file("export"), *gns_transport,
                                 net::inproc_endpoint("dione", "fs"));
  if (!file_server.start().is_ok()) return 1;

  const std::string work = scratch->file("work").string();
  auto run_pair = [&](const char* label, bool concurrent) -> bool {
    auto transport = network.transport("jagan");
    gns::ReplicatedNameService gns_client(*transport);
    for (const gns::ReplicaAddress& replica : gns.endpoints()) {
      gns_client.add_replica(replica.name, replica.endpoint);
    }
    core::FileMultiplexer::Options options;
    options.host = "jagan";
    options.local_root = work;
    options.scratch_dir = scratch->file("stage").string();
    options.gns = &gns_client;
    options.transport = transport.get();
    core::FileMultiplexer fm(options);
    core::glio_install(&fm);

    int lines = 0;
    bool write_ok = true, read_ok = true;
    if (concurrent) {
      std::thread writer([&] { write_ok = legacy_writer("result.dat"); });
      read_ok = legacy_reader("result.dat", &lines);
      writer.join();
    } else {
      write_ok = legacy_writer("result.dat");
      read_ok = legacy_reader("result.dat", &lines);
    }
    core::glio_install(nullptr);
    if (!write_ok || !read_ok || lines != 1000) {
      std::fprintf(stderr, "  %s: write=%d read=%d lines=%d\n", label,
                   write_ok, read_ok, lines);
      return false;
    }
    auto stats = fm.stats();
    std::printf(
        "  %-28s read %d lines  [local=%llu staged=%llu buffer=%llu]\n",
        label, lines, (unsigned long long)stats.local_opens,
        (unsigned long long)stats.staged_opens,
        (unsigned long long)stats.buffer_opens);
    return true;
  };

  std::printf("GriddLeS quickstart: same binary, three IO routings\n");

  // 1. No mapping: plain local file.
  if (!run_pair("local files", false)) return fail("local run");

  // 2. Reroute result.dat to a Grid Buffer (writer and reader overlap).
  {
    gns::MappingRule rule;
    rule.host_pattern = "jagan";
    rule.path_pattern = "*result.dat";
    rule.mapping.mode = gns::IoMode::kGridBuffer;
    rule.mapping.channel = "quickstart/result";
    rule.mapping.buffer_endpoint =
        buffer_server.endpoint().to_string();
    if (!gns.add_rule(rule).is_ok()) return fail("buffer rule");
  }
  if (!run_pair("grid buffer stream", true)) return fail("buffer run");

  // 3. Reroute to the remote file server (staged copy in/out). Same
  // pattern pair, so this rule replaces the buffer one.
  {
    gns::MappingRule rule;
    rule.host_pattern = "jagan";
    rule.path_pattern = "*result.dat";
    rule.mapping.mode = gns::IoMode::kRemoteCopy;
    rule.mapping.remote_endpoint = file_server.endpoint().to_string();
    rule.mapping.remote_path = "result.dat";
    if (!gns.add_rule(rule).is_ok()) return fail("remote rule");
  }
  if (!run_pair("remote file (staged copy)", false)) {
    return fail("remote run");
  }

  buffer_server.stop();
  file_server.stop();
  gns.stop();
  std::printf("All three configurations produced identical results.\n");
  return 0;
}
