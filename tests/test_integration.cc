// End-to-end integration tests: the full GriddLeS stack (GNS + Grid
// Buffer servers + file servers + FM + workflow runner) on the modelled
// testbed, over both in-process and real TCP transports, plus
// fault-injection around server loss and stuck streams.
#include <gtest/gtest.h>

#include <thread>

#include "src/apps/paper_apps.h"
#include "src/common/tempfile.h"
#include "src/core/multiplexer.h"
#include "src/core/staged_client.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/gridbuffer/server.h"
#include "src/net/tcp.h"
#include "src/remote/file_server.h"
#include "src/vfs/local_client.h"
#include "src/workflow/runner.h"

namespace griddles {
namespace {

// ---- Full stack over real TCP sockets ---------------------------------

TEST(TcpIntegrationTest, FmRoutesOverRealSockets) {
  auto dir = TempDir::create("tcp-integration");
  net::TcpTransport transport;

  gns::GnsCluster gns(transport, gns::GnsCluster::Options{});
  ASSERT_TRUE(
      gns.add_replica("gns-0", net::tcp_endpoint("127.0.0.1", 0)).is_ok());
  ASSERT_TRUE(gns.start().is_ok());
  gridbuffer::GridBufferServer buffer_server(
      dir->file("gbuf").string(), transport,
      net::tcp_endpoint("127.0.0.1", 0));
  ASSERT_TRUE(buffer_server.start().is_ok());
  remote::FileServer file_server(dir->file("export"), transport,
                                 net::tcp_endpoint("127.0.0.1", 0));
  ASSERT_TRUE(file_server.start().is_ok());

  // Map stream.dat to a buffer channel and remote.dat to the server.
  {
    gns::MappingRule rule;
    rule.host_pattern = "*";
    rule.path_pattern = "*stream.dat";
    rule.mapping.mode = gns::IoMode::kGridBuffer;
    rule.mapping.channel = "tcp/stream";
    rule.mapping.buffer_endpoint = buffer_server.endpoint().to_string();
    ASSERT_TRUE(gns.add_rule(rule).is_ok());
    rule.path_pattern = "*remote.dat";
    rule.mapping.mode = gns::IoMode::kRemoteCopy;
    rule.mapping.channel.clear();
    rule.mapping.buffer_endpoint.clear();
    rule.mapping.remote_endpoint = file_server.endpoint().to_string();
    rule.mapping.remote_path = "remote.dat";
    ASSERT_TRUE(gns.add_rule(rule).is_ok());
  }

  gns::ReplicatedNameService gns_client(transport);
  for (const gns::ReplicaAddress& replica : gns.endpoints()) {
    gns_client.add_replica(replica.name, replica.endpoint);
  }
  core::FileMultiplexer::Options options;
  options.host = "localhost";
  options.local_root = dir->file("work").string();
  options.scratch_dir = dir->file("stage").string();
  options.gns = &gns_client;
  options.transport = &transport;
  core::FileMultiplexer fm(options);

  Bytes payload(300000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i * 7);
  }

  // Stream through the buffer, writer and reader overlapping over TCP.
  std::thread writer([&] {
    auto fd = fm.open("stream.dat", vfs::OpenFlags::output());
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(fm.write(*fd, payload).is_ok());
    ASSERT_TRUE(fm.close(*fd).is_ok());
  });
  {
    auto fd = fm.open("stream.dat", vfs::OpenFlags::input());
    ASSERT_TRUE(fd.is_ok());
    Bytes got(payload.size());
    std::size_t total = 0;
    while (total < got.size()) {
      auto n = fm.read(*fd, {got.data() + total, got.size() - total});
      ASSERT_TRUE(n.is_ok());
      if (*n == 0) break;
      total += *n;
    }
    EXPECT_EQ(total, payload.size());
    EXPECT_EQ(got, payload);
    ASSERT_TRUE(fm.close(*fd).is_ok());
  }
  writer.join();

  // Staged copy out and back in over TCP.
  {
    auto fd = fm.open("remote.dat", vfs::OpenFlags::output());
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(fm.write(*fd, payload).is_ok());
    ASSERT_TRUE(fm.close(*fd).is_ok());
    auto server_copy =
        vfs::read_file((file_server.root() / "remote.dat").string());
    ASSERT_TRUE(server_copy.is_ok());
    EXPECT_EQ(*server_copy, payload);
  }

  buffer_server.stop();
  file_server.stop();
  gns.stop();
}

// ---- Paper pipelines, small scale, all modes ---------------------------

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  PipelineIntegrationTest() : dir_(*TempDir::create("pipe-integration")) {}

  /// Climate pipeline shrunk 2000x, on a fast clock.
  Result<workflow::WorkflowReport> run_climate(
      const std::vector<std::string>& machines,
      workflow::CouplingMode mode) {
    testbed::TestbedRuntime testbed(0.002, dir_.path().string(), 2000.0);
    workflow::WorkflowRunner runner(testbed);
    auto pipeline = apps::climate_pipeline(2000.0);
    for (auto& kernel : pipeline) {
      kernel.work_units /= 100;  // seconds, not tens of minutes
      kernel.timesteps = 24;
      kernel.verify_inputs = true;
    }
    GL_ASSIGN_OR_RETURN(
        const workflow::WorkflowSpec spec,
        workflow::WorkflowSpec::from_pipeline("climate", pipeline,
                                              machines));
    workflow::WorkflowRunner::Options options;
    options.mode = mode;
    options.buffer_block = 1024;
    return runner.run(spec, options);
  }

  TempDir dir_;
};

TEST_F(PipelineIntegrationTest, ClimateSequentialOneMachine) {
  auto report = run_climate({"brecca"},
                            workflow::CouplingMode::kSequentialFiles);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), 3u);
}

TEST_F(PipelineIntegrationTest, ClimateBuffersDistributed) {
  auto report = run_climate({"brecca", "brecca", "vpac27"},
                            workflow::CouplingMode::kGridBuffers);
  ASSERT_TRUE(report.is_ok()) << report.status();
  const auto* ccam = report->task("ccam");
  const auto* darlam = report->task("darlam");
  ASSERT_NE(ccam, nullptr);
  ASSERT_NE(darlam, nullptr);
  EXPECT_LT(darlam->started_s, ccam->finished_s);  // genuine pipelining
}

TEST_F(PipelineIntegrationTest, ClimateFilesWithCopyDistributed) {
  auto report = run_climate({"brecca", "brecca", "vpac27"},
                            workflow::CouplingMode::kSequentialFiles);
  ASSERT_TRUE(report.is_ok()) << report.status();
  ASSERT_EQ(report->copies.size(), 1u);  // LAM_IN.DAT to vpac27
  EXPECT_EQ(report->copies[0].to, "vpac27");
}

TEST_F(PipelineIntegrationTest, DurabilityBuffersDistributed) {
  testbed::TestbedRuntime testbed(0.002, dir_.path().string(), 2000.0);
  workflow::WorkflowRunner runner(testbed);
  auto pipeline = apps::durability_pipeline(2000.0);
  for (auto& kernel : pipeline) {
    kernel.work_units /= 100;
    kernel.timesteps = 16;
    kernel.verify_inputs = true;
  }
  auto spec = workflow::WorkflowSpec::from_pipeline(
      "durability", pipeline,
      {"koume00", "jagan", "dione", "vpac27", "freak"});
  ASSERT_TRUE(spec.is_ok());
  workflow::WorkflowRunner::Options options;
  options.mode = workflow::CouplingMode::kGridBuffers;
  options.buffer_block = 1024;
  auto report = runner.run(*spec, options);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report->tasks.size(), 5u);
}

// ---- Fault injection ----------------------------------------------------

TEST(FaultTest, ReaderSurvivesWriterCrashViaTimeout) {
  // A writer that dies without closing the channel must not hang the
  // reader forever: the read deadline fires.
  auto dir = TempDir::create("fault-hang");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("dione");
  gridbuffer::GridBufferServer server(dir->file("cache").string(),
                                      *server_transport,
                                      net::inproc_endpoint("dione", "g"));
  ASSERT_TRUE(server.start().is_ok());
  auto transport = network.transport("jagan");

  {
    gridbuffer::GridBufferWriter::Options writer_options;
    auto writer = gridbuffer::GridBufferWriter::open(
        *transport, server.endpoint(), "fault/hang", writer_options);
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE((*writer)->write(Bytes(1000, std::byte{1})).is_ok());
    ASSERT_TRUE((*writer)->flush().is_ok());
    // Simulate a crash: drop the writer WITHOUT close_writer reaching
    // the channel... (close() in the destructor would publish EOF, so
    // instead we just never close and keep the channel open.)
    // Reader with a short deadline:
    gridbuffer::GridBufferReader::Options reader_options;
    reader_options.read_deadline_ms = 100;
    auto reader = gridbuffer::GridBufferReader::open(
        *transport, server.endpoint(), "fault/hang", reader_options);
    ASSERT_TRUE(reader.is_ok());
    Bytes buffer(2000);
    auto first = (*reader)->read({buffer.data(), 1000});
    ASSERT_TRUE(first.is_ok());
    EXPECT_EQ(*first, 1000u);
    auto stuck = (*reader)->read({buffer.data(), 1000});
    EXPECT_FALSE(stuck.is_ok());
    EXPECT_EQ(stuck.status().code(), ErrorCode::kTimeout);
    ASSERT_TRUE((*reader)->close().is_ok());
    ASSERT_TRUE((*writer)->close().is_ok());
  }
  server.stop();
}

TEST(FaultTest, BufferServerShutdownUnblocksClients) {
  auto dir = TempDir::create("fault-shutdown");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("dione");
  auto server = std::make_unique<gridbuffer::GridBufferServer>(
      dir->file("cache").string(), *server_transport,
      net::inproc_endpoint("dione", "g"));
  ASSERT_TRUE(server->start().is_ok());
  auto transport = network.transport("jagan");

  gridbuffer::GridBufferReader::Options reader_options;
  reader_options.read_deadline_ms = 0;  // wait forever
  auto reader = gridbuffer::GridBufferReader::open(
      *transport, server->endpoint(), "fault/srv", reader_options);
  ASSERT_TRUE(reader.is_ok());

  std::thread blocked([&] {
    Bytes buffer(100);
    auto got = (*reader)->read({buffer.data(), buffer.size()});
    EXPECT_FALSE(got.is_ok());  // aborted or closed, never data
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->stop();
  blocked.join();
}

TEST(FaultTest, StagedCloseFailsWhenServerGone) {
  auto dir = TempDir::create("fault-staged");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("freak");
  auto file_server = std::make_unique<remote::FileServer>(
      dir->file("export"), *server_transport,
      net::inproc_endpoint("freak", "fs"));
  ASSERT_TRUE(file_server->start().is_ok());
  auto transport = network.transport("jagan");

  auto staged = core::StagedFileClient::open(
      *transport, clock, file_server->endpoint(), "out.bin",
      dir->file("stage.bin").string(), vfs::OpenFlags::output());
  ASSERT_TRUE(staged.is_ok());
  ASSERT_TRUE((*staged)->write(as_bytes_view("data")).is_ok());
  file_server->stop();
  file_server.reset();
  // The copy-back on close must fail loudly, not silently drop data.
  EXPECT_FALSE((*staged)->close().is_ok());
}

TEST(FaultTest, GnsDownMakesOpensFailCleanly) {
  auto dir = TempDir::create("fault-gns");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto transport = network.transport("jagan");
  gns::ReplicatedNameService gns_client(*transport);
  gns_client.add_replica("gns-0", net::inproc_endpoint("jagan", "nope"));
  core::FileMultiplexer::Options options;
  options.host = "jagan";
  options.local_root = dir->path().string();
  options.gns = &gns_client;
  options.transport = transport.get();
  core::FileMultiplexer fm(options);
  auto fd = fm.open("x.dat", vfs::OpenFlags::output());
  EXPECT_FALSE(fd.is_ok());
  EXPECT_EQ(fd.status().code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace griddles
