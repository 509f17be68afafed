// Concurrency stress tests: many channels, many clients, broadcast
// fan-out, and racing teardown — the failure modes a long-running Grid
// Buffer deployment actually sees.
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "src/common/tempfile.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/gridbuffer/client.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"
#include "src/remote/file_server.h"
#include "src/remote/remote_client.h"
#include "src/vfs/local_client.h"

namespace griddles {
namespace {

TEST(StressTest, ManyParallelChannels) {
  auto dir = TempDir::create("stress-channels");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("dione");
  gridbuffer::GridBufferServer server(dir->file("cache").string(),
                                      *server_transport,
                                      net::inproc_endpoint("dione", "g"));
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kChannels = 12;
  constexpr std::size_t kBytesPerChannel = 60000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kChannels; ++c) {
    threads.emplace_back([&, c] {
      auto transport = network.transport("jagan");
      const std::string channel = "stress/" + std::to_string(c);
      gridbuffer::GridBufferWriter::Options options;
      options.channel.block_size = 512;
      options.flusher_threads = 2;
      auto writer = gridbuffer::GridBufferWriter::open(
          *transport, server.endpoint(), channel, options);
      if (!writer.is_ok()) {
        ++failures;
        return;
      }
      Bytes chunk(1000);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<std::byte>(i + c);
      }
      for (std::size_t sent = 0; sent < kBytesPerChannel;
           sent += chunk.size()) {
        if (!(*writer)->write(chunk).is_ok()) {
          ++failures;
          return;
        }
      }
      if (!(*writer)->close().is_ok()) ++failures;
    });
    threads.emplace_back([&, c] {
      auto transport = network.transport("vpac27");
      const std::string channel = "stress/" + std::to_string(c);
      gridbuffer::GridBufferReader::Options options;
      options.channel.block_size = 512;
      auto reader = gridbuffer::GridBufferReader::open(
          *transport, server.endpoint(), channel, options);
      if (!reader.is_ok()) {
        ++failures;
        return;
      }
      Bytes buffer(1777);
      std::size_t total = 0;
      while (true) {
        auto n = (*reader)->read({buffer.data(), buffer.size()});
        if (!n.is_ok()) {
          ++failures;
          return;
        }
        if (*n == 0) break;
        // Verify content: byte at stream offset o is (o%1000 + c).
        for (std::size_t i = 0; i < *n; ++i) {
          const auto expected = static_cast<std::byte>(
              (total + i) % 1000 + static_cast<std::size_t>(c));
          if (buffer[i] != expected) {
            ++failures;
            return;
          }
        }
        total += *n;
      }
      if (total != kBytesPerChannel) ++failures;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures, 0);
  server.stop();
}

TEST(StressTest, BroadcastToManyReaders) {
  auto dir = TempDir::create("stress-bcast");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("dione");
  gridbuffer::GridBufferServer server(dir->file("cache").string(),
                                      *server_transport,
                                      net::inproc_endpoint("dione", "g"));
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kReaders = 6;
  constexpr std::size_t kTotal = 200000;
  gridbuffer::ChannelConfig config;
  config.block_size = 2048;
  config.expected_readers = kReaders;
  config.cache_enabled = false;  // broadcast must hold blocks in the table
  config.max_buffered_bytes = 1u << 20;

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      auto transport = network.transport("vpac27");
      gridbuffer::GridBufferReader::Options options;
      options.channel = config;
      auto reader = gridbuffer::GridBufferReader::open(
          *transport, server.endpoint(), "bcast", options);
      if (!reader.is_ok()) {
        ++failures;
        return;
      }
      Bytes buffer(4096);
      std::size_t total = 0;
      while (true) {
        auto n = (*reader)->read({buffer.data(), buffer.size()});
        if (!n.is_ok()) {
          ++failures;
          return;
        }
        if (*n == 0) break;
        total += *n;
      }
      if (total != kTotal) ++failures;
    });
  }

  auto writer_transport = network.transport("jagan");
  gridbuffer::GridBufferWriter::Options writer_options;
  writer_options.channel = config;
  auto writer = gridbuffer::GridBufferWriter::open(
      *writer_transport, server.endpoint(), "bcast", writer_options);
  ASSERT_TRUE(writer.is_ok());
  Bytes chunk(5000, std::byte{0x2a});
  for (std::size_t sent = 0; sent < kTotal; sent += chunk.size()) {
    ASSERT_TRUE((*writer)->write(chunk).is_ok());
  }
  ASSERT_TRUE((*writer)->close().is_ok());
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures, 0);
  server.stop();
}

TEST(StressTest, GnsUnderConcurrentLookupsAndEdits) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("dione");
  gns::GnsCluster cluster(*server_transport, gns::GnsCluster::Options{});
  ASSERT_TRUE(
      cluster.add_replica("gns-0", net::inproc_endpoint("dione", "gns"))
          .is_ok());
  ASSERT_TRUE(cluster.start().is_ok());
  const auto make_service = [&](net::Transport& transport) {
    auto service = std::make_unique<gns::ReplicatedNameService>(transport);
    for (const gns::ReplicaAddress& replica : cluster.endpoints()) {
      service->add_replica(replica.name, replica.endpoint);
    }
    return service;
  };

  // 100 edits over 10 keys: key h<k> is written by edits k, k+10, ...,
  // each with its own block size, so the last edit's mapping must win.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread editor([&] {
    auto transport = network.transport("brecca");
    auto client = make_service(*transport);
    for (int i = 0; i < 100; ++i) {
      gns::MappingRule rule;
      rule.host_pattern = "h" + std::to_string(i % 10);
      rule.path_pattern = "*";
      rule.mapping.mode = gns::IoMode::kGridBuffer;
      rule.mapping.block_size = static_cast<std::uint32_t>(1000 + i);
      if (!client->add_rule(rule).is_ok()) ++failures;
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      auto transport = network.transport("jagan");
      auto client = make_service(*transport);
      while (!stop) {
        auto mapping =
            client->lookup("h" + std::to_string(r), "/some/file");
        if (!mapping.is_ok()) ++failures;
      }
    });
  }
  editor.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures, 0);

  // The store keys rules by pattern pair: one live rule per key.
  const std::shared_ptr<gns::ReplicaNode> node = cluster.node("gns-0");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->store().live_count(), 10u);
  auto transport = network.transport("jagan");
  auto fresh = make_service(*transport);
  for (int k = 0; k < 10; ++k) {
    auto mapping = fresh->lookup("h" + std::to_string(k), "/some/file");
    ASSERT_TRUE(mapping.is_ok()) << mapping.status();
    ASSERT_TRUE(mapping->has_value()) << k;
    EXPECT_EQ((*mapping)->block_size, static_cast<std::uint32_t>(1090 + k));
  }
  cluster.stop();
}

TEST(StressTest, ManyHandlesOnOneFileServer) {
  auto dir = TempDir::create("stress-fs");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("freak");
  remote::FileServer server(dir->file("export"), *server_transport,
                            net::inproc_endpoint("freak", "fs"));
  ASSERT_TRUE(server.start().is_ok());
  Bytes data(50000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i);
  }
  ASSERT_TRUE(
      vfs::write_file((server.root() / "shared.bin").string(), data)
          .is_ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto transport = network.transport("jagan");
      for (int round = 0; round < 5; ++round) {
        auto file = remote::RemoteFileClient::open(
            *transport, server.endpoint(), "shared.bin",
            vfs::OpenFlags::input());
        if (!file.is_ok()) {
          ++failures;
          return;
        }
        auto all = vfs::read_all(**file);
        if (!all.is_ok() || *all != data) ++failures;
        if (!(*file)->close().is_ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(server.open_handles(), 0u);
  server.stop();
}

}  // namespace
}  // namespace griddles
