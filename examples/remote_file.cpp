// Remote file access (paper modes 2/3) and the run-time copy-vs-proxy
// decision (kAuto): the same application opens two files on a remote
// server; the FM stages the one it will scan completely and proxies the
// one it only samples — decided at OPEN time from file size, the mapping's
// access-fraction hint, and the (modelled) link weather.
//
//   ./build/examples/remote_file
#include <cstdio>

#include "src/common/tempfile.h"
#include "src/core/multiplexer.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/net/inproc.h"
#include "src/remote/file_server.h"
#include "src/vfs/local_client.h"

using namespace griddles;

int main() {
  auto scratch = TempDir::create("remote-example");
  if (!scratch.is_ok()) return 1;
  ScaledClock clock(0.002);  // 1 model s = 2 wall ms
  net::InProcNetwork network(clock);
  // jagan <-> freak: trans-Pacific link.
  net::LinkModel wan;
  wan.latency = from_seconds_d(0.090);
  wan.bandwidth_bytes_per_sec = 0.84e6;
  network.links().set_link("jagan", "freak", wan);

  // The remote archive on freak.
  auto server_transport = network.transport("freak");
  remote::FileServer file_server(scratch->file("archive"),
                                 *server_transport,
                                 net::inproc_endpoint("freak", "fs"));
  if (!file_server.start().is_ok()) return 1;
  Bytes small_config(200 * 1000);   // scanned fully
  Bytes big_archive(20 * 1000 * 1000);  // sampled sparsely
  for (std::size_t i = 0; i < small_config.size(); ++i) {
    small_config[i] = static_cast<std::byte>('A' + i % 26);
  }
  for (std::size_t i = 0; i < big_archive.size(); ++i) {
    big_archive[i] = static_cast<std::byte>(i % 256);
  }
  if (!vfs::write_file((file_server.root() / "config.dat").string(),
                       small_config)
           .is_ok() ||
      !vfs::write_file((file_server.root() / "archive.bin").string(),
                       big_archive)
           .is_ok()) {
    return 1;
  }

  // GNS rules: both files are remote with mode=auto; the archive carries
  // an access-fraction hint of 1% (the app samples it).
  auto gns_transport = network.transport("jagan");
  gns::GnsCluster gns(*gns_transport, gns::GnsCluster::Options{});
  if (!gns.add_replica("gns-0", net::inproc_endpoint("jagan", "gns"))
           .is_ok() ||
      !gns.start().is_ok()) {
    return 1;
  }
  {
    gns::MappingRule rule;
    rule.host_pattern = "jagan";
    rule.path_pattern = "*config.dat";
    rule.mapping.mode = gns::IoMode::kAuto;
    rule.mapping.remote_endpoint = file_server.endpoint().to_string();
    rule.mapping.remote_path = "config.dat";
    rule.mapping.access_fraction = 1.0;
    if (!gns.add_rule(rule).is_ok()) return 1;
    rule.path_pattern = "*archive.bin";
    rule.mapping.remote_path = "archive.bin";
    rule.mapping.access_fraction = 0.01;
    if (!gns.add_rule(rule).is_ok()) return 1;
  }

  // Static link estimate standing in for NWS (see replica_selection for
  // the live-probing variant).
  nws::StaticLinkEstimator estimator;
  estimator.set("freak", {0.090, 0.84e6});

  auto app_transport = network.transport("jagan");
  gns::ReplicatedNameService gns_client(*app_transport);
  for (const gns::ReplicaAddress& replica : gns.endpoints()) {
    gns_client.add_replica(replica.name, replica.endpoint);
  }
  core::FileMultiplexer::Options options;
  options.host = "jagan";
  options.local_root = scratch->file("work").string();
  options.scratch_dir = scratch->file("stage").string();
  options.gns = &gns_client;
  options.transport = app_transport.get();
  options.estimator = &estimator;
  options.clock = &clock;
  core::FileMultiplexer fm(options);

  // --- The application ---------------------------------------------
  // Full scan of config.dat:
  auto config_fd = fm.open("config.dat", vfs::OpenFlags::input());
  if (!config_fd.is_ok()) return 1;
  Bytes buffer(64 * 1024);
  std::uint64_t config_bytes = 0;
  while (true) {
    auto n = fm.read(*config_fd, {buffer.data(), buffer.size()});
    if (!n.is_ok() || *n == 0) break;
    config_bytes += *n;
  }
  std::printf("config.dat: scanned %llu bytes via [%s]\n",
              (unsigned long long)config_bytes,
              fm.describe(*config_fd)->c_str());

  // Sparse sampling of archive.bin (every ~2 MB):
  auto archive_fd = fm.open("archive.bin", vfs::OpenFlags::input());
  if (!archive_fd.is_ok()) return 1;
  std::uint64_t sampled = 0;
  for (std::uint64_t offset = 0; offset < big_archive.size();
       offset += 2 * 1000 * 1000) {
    if (!fm.seek(*archive_fd, static_cast<std::int64_t>(offset),
                 vfs::Whence::kSet)
             .is_ok()) {
      return 1;
    }
    auto n = fm.read(*archive_fd, {buffer.data(), 4096});
    if (!n.is_ok()) return 1;
    sampled += *n;
  }
  std::printf("archive.bin: sampled %llu bytes via [%s]\n",
              (unsigned long long)sampled,
              fm.describe(*archive_fd)->c_str());
  // -------------------------------------------------------------------

  const auto stats = fm.stats();
  std::printf(
      "\nFM routing decisions: %llu staged copy, %llu remote proxy.\n",
      (unsigned long long)stats.staged_opens,
      (unsigned long long)stats.proxy_opens);
  std::printf(
      "(Paper §3.1: the access pattern and link weather decide, per "
      "OPEN, whether to copy the file or touch it remotely.)\n");
  if (fm.close_all().is_ok() && stats.staged_opens == 1 &&
      stats.proxy_opens == 1) {
    return 0;
  }
  return 1;
}
