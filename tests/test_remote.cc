// Tests for the remote file service: server, proxy client (with its
// block cache), parallel copier, and the copy-vs-proxy advisor.
#include <gtest/gtest.h>

#include "src/common/tempfile.h"
#include "src/net/inproc.h"
#include "src/net/tcp.h"
#include "src/remote/advisor.h"
#include "src/remote/copier.h"
#include "src/remote/file_server.h"
#include "src/remote/remote_client.h"
#include "src/vfs/local_client.h"

namespace griddles::remote {
namespace {

class RemoteTest : public ::testing::Test {
 protected:
  RemoteTest()
      : dir_(*TempDir::create("remote-test")), network_(clock_),
        server_transport_(network_.transport("freak")),
        client_transport_(network_.transport("jagan")),
        server_(dir_.file("export"), *server_transport_,
                net::inproc_endpoint("freak", "fs")) {
    EXPECT_TRUE(server_.start().is_ok());
  }
  ~RemoteTest() override { server_.stop(); }

  Bytes pattern(std::size_t n) {
    Bytes out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::byte>(i * 131 + 7);
    }
    return out;
  }

  void put_remote(const std::string& name, ByteSpan data) {
    ASSERT_TRUE(
        vfs::write_file((server_.root() / name).string(), data).is_ok());
  }

  TempDir dir_;
  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> server_transport_;
  std::unique_ptr<net::Transport> client_transport_;
  FileServer server_;
};

TEST_F(RemoteTest, ProxyReadWholeFile) {
  const Bytes data = pattern(200001);
  put_remote("big.bin", data);
  auto file = RemoteFileClient::open(*client_transport_, server_.endpoint(),
                                     "big.bin", vfs::OpenFlags::input());
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ((*file)->size().value(), data.size());
  auto all = vfs::read_all(**file);
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(*all, data);
}

TEST_F(RemoteTest, ProxyBlockCacheHitsOnRereads) {
  put_remote("c.bin", pattern(100000));
  auto file = RemoteFileClient::open(*client_transport_, server_.endpoint(),
                                     "c.bin", vfs::OpenFlags::input());
  ASSERT_TRUE(file.is_ok());
  Bytes buffer(1000);
  ASSERT_TRUE((*file)->read({buffer.data(), buffer.size()}).is_ok());
  const auto misses = (*file)->cache_misses();
  // Re-read the same region: all cache hits, no further fetches.
  ASSERT_TRUE((*file)->seek(0, vfs::Whence::kSet).is_ok());
  ASSERT_TRUE((*file)->read({buffer.data(), buffer.size()}).is_ok());
  EXPECT_EQ((*file)->cache_misses(), misses);
  EXPECT_GT((*file)->cache_hits(), 0u);
}

/// Reads a file through a RemoteFileClient, then stops the server (closing
/// the connection that carried the blocks) and overwrites the file: the
/// block cache's slices must still serve the original bytes.
void expect_cached_blocks_outlive_connection(net::Transport& transport,
                                             const net::Endpoint& bind) {
  auto dir = TempDir::create("remote-lifetime");
  ASSERT_TRUE(dir.is_ok());
  FileServer server(dir->file("export"), transport, bind);
  ASSERT_TRUE(server.start().is_ok());
  Bytes original(150000);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::byte>(i * 7 + 3);
  }
  const std::string path = (server.root() / "f.bin").string();
  ASSERT_TRUE(vfs::write_file(path, original).is_ok());
  auto file = RemoteFileClient::open(transport, server.endpoint(), "f.bin",
                                     vfs::OpenFlags::input());
  ASSERT_TRUE(file.is_ok());
  Bytes first(original.size());
  ASSERT_EQ((*file)->read({first.data(), first.size()}).value(),
            original.size());
  const auto misses = (*file)->cache_misses();

  server.stop();
  ASSERT_TRUE(vfs::write_file(path, Bytes(original.size())).is_ok());
  ASSERT_TRUE((*file)->seek(0, vfs::Whence::kSet).is_ok());
  Bytes again(original.size());
  ASSERT_EQ((*file)->read({again.data(), again.size()}).value(),
            original.size());
  EXPECT_EQ((*file)->cache_misses(), misses);
  EXPECT_EQ(again, original);
}

TEST(RemoteLifetimeTest, CachedBlocksOutliveConnectionInProc) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto transport = network.transport("freak");
  expect_cached_blocks_outlive_connection(*transport,
                                          net::inproc_endpoint("freak", "fs"));
}

TEST(RemoteLifetimeTest, CachedBlocksOutliveConnectionTcp) {
  net::TcpTransport transport;
  expect_cached_blocks_outlive_connection(transport,
                                          net::tcp_endpoint("127.0.0.1", 0));
}

/// Reads one block through a RemoteFileClient, then stops the server and
/// starts another on the same endpoint and root: the open file is no
/// state of the server's, so the reader goes on to read the rest.
void expect_reader_survives_server_restart(net::Transport& transport,
                                           const net::Endpoint& bind) {
  auto dir = TempDir::create("remote-restart");
  ASSERT_TRUE(dir.is_ok());
  auto server =
      std::make_unique<FileServer>(dir->file("export"), transport, bind);
  ASSERT_TRUE(server->start().is_ok());
  Bytes data(5 * kDefaultProxyBlock + 123);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 11 + 5);
  }
  ASSERT_TRUE(
      vfs::write_file((server->root() / "r.bin").string(), data).is_ok());
  auto file = RemoteFileClient::open(transport, server->endpoint(), "r.bin",
                                     vfs::OpenFlags::input());
  ASSERT_TRUE(file.is_ok()) << file.status();
  Bytes got(data.size());
  ASSERT_EQ((*file)->read({got.data(), kDefaultProxyBlock}).value(),
            kDefaultProxyBlock);

  const net::Endpoint endpoint = server->endpoint();
  server.reset();
  server =
      std::make_unique<FileServer>(dir->file("export"), transport, endpoint);
  ASSERT_TRUE(server->start().is_ok());

  std::size_t at = kDefaultProxyBlock;
  while (at < got.size()) {
    auto n = (*file)->read({got.data() + at, got.size() - at});
    ASSERT_TRUE(n.is_ok()) << n.status();
    ASSERT_GT(*n, 0u);
    at += *n;
  }
  EXPECT_EQ(got, data);
}

TEST_F(RemoteTest, ProxyReaderSurvivesServerRestartInProc) {
  expect_reader_survives_server_restart(
      *server_transport_, net::inproc_endpoint("freak", "fs-restart"));
}

TEST_F(RemoteTest, ProxyReaderSurvivesServerRestartTcp) {
  net::TcpTransport transport;
  expect_reader_survives_server_restart(transport,
                                        net::tcp_endpoint("127.0.0.1", 0));
}

TEST_F(RemoteTest, ProxyWriteReadBack) {
  auto file = RemoteFileClient::open(*client_transport_, server_.endpoint(),
                                     "w.bin", vfs::OpenFlags::output());
  ASSERT_TRUE(file.is_ok());
  const Bytes data = pattern(5000);
  ASSERT_TRUE(vfs::write_all(**file, data).is_ok());
  ASSERT_TRUE((*file)->close().is_ok());
  auto back = vfs::read_file((server_.root() / "w.bin").string());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, data);
}

TEST_F(RemoteTest, WriteInvalidatesCachedBlocks) {
  put_remote("rw.bin", pattern(8192));
  auto file = RemoteFileClient::open(*client_transport_, server_.endpoint(),
                                     "rw.bin", vfs::OpenFlags::update());
  ASSERT_TRUE(file.is_ok());
  Bytes buffer(16);
  ASSERT_TRUE((*file)->read({buffer.data(), buffer.size()}).is_ok());
  ASSERT_TRUE((*file)->seek(0, vfs::Whence::kSet).is_ok());
  ASSERT_TRUE((*file)->write(as_bytes_view("OVERWRITTEN!")).is_ok());
  ASSERT_TRUE((*file)->seek(0, vfs::Whence::kSet).is_ok());
  Bytes check(12);
  ASSERT_TRUE((*file)->read({check.data(), check.size()}).is_ok());
  EXPECT_EQ(to_string(check), "OVERWRITTEN!");
}

TEST_F(RemoteTest, MissingFileNotFound) {
  auto file = RemoteFileClient::open(*client_transport_, server_.endpoint(),
                                     "ghost", vfs::OpenFlags::input());
  EXPECT_FALSE(file.is_ok());
  EXPECT_EQ(file.status().code(), ErrorCode::kNotFound);
}

TEST_F(RemoteTest, PathEscapeRejected) {
  auto file = RemoteFileClient::open(*client_transport_, server_.endpoint(),
                                     "../../etc/passwd",
                                     vfs::OpenFlags::input());
  EXPECT_FALSE(file.is_ok());
  EXPECT_EQ(file.status().code(), ErrorCode::kPermissionDenied);
  auto abs = RemoteFileClient::open(*client_transport_, server_.endpoint(),
                                    "/etc/passwd", vfs::OpenFlags::input());
  EXPECT_FALSE(abs.is_ok());
  EXPECT_EQ(abs.status().code(), ErrorCode::kPermissionDenied);
}

TEST_F(RemoteTest, CopierFetchRoundTrip) {
  const Bytes data = pattern(3 * 1024 * 1024 + 17);
  put_remote("fetch.bin", data);
  FileCopier::Options options;
  options.parallel_streams = 3;
  options.chunk_size = 256 * 1024;
  FileCopier copier(*client_transport_, clock_, options);
  const std::string local = dir_.file("fetched.bin").string();
  auto stats = copier.fetch(server_.endpoint(), "fetch.bin", local);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->bytes, data.size());
  EXPECT_EQ(stats->streams_used, 3);
  auto back = vfs::read_file(local);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, data);
}

TEST_F(RemoteTest, CopierPushRoundTrip) {
  const Bytes data = pattern(2 * 1024 * 1024 + 3);
  const std::string local = dir_.file("tosend.bin").string();
  ASSERT_TRUE(vfs::write_file(local, data).is_ok());
  FileCopier copier(*client_transport_, clock_);
  auto stats = copier.push(local, server_.endpoint(), "pushed/deep.bin");
  ASSERT_TRUE(stats.is_ok());
  auto back = vfs::read_file((server_.root() / "pushed/deep.bin").string());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, data);
}

TEST_F(RemoteTest, CopierPushOverwritesLargerOldFile) {
  put_remote("shrink.bin", pattern(100000));
  const Bytes small = pattern(10);
  const std::string local = dir_.file("small.bin").string();
  ASSERT_TRUE(vfs::write_file(local, small).is_ok());
  FileCopier copier(*client_transport_, clock_);
  ASSERT_TRUE(
      copier.push(local, server_.endpoint(), "shrink.bin").is_ok());
  auto back = vfs::read_file((server_.root() / "shrink.bin").string());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->size(), small.size());
}

TEST_F(RemoteTest, CopierFetchMissingFails) {
  FileCopier copier(*client_transport_, clock_);
  auto stats = copier.fetch(server_.endpoint(), "nope",
                            dir_.file("x").string());
  EXPECT_FALSE(stats.is_ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kNotFound);
}

TEST_F(RemoteTest, CopierEmptyFile) {
  put_remote("empty", {});
  FileCopier copier(*client_transport_, clock_);
  const std::string local = dir_.file("empty-local").string();
  auto stats = copier.fetch(server_.endpoint(), "empty", local);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->bytes, 0u);
  EXPECT_EQ(vfs::file_size(local).value(), 0u);
}

// ---- Advisor ----------------------------------------------------------

TEST(AdvisorTest, SmallFileHighLatencyPrefersCopy) {
  // Paper §3.1: "if a file is small and the latency to the remote system
  // is high, then it is more efficient to copy the file".
  nws::LinkEstimate slow_link{0.3, 1e6};
  const Advice advice = advise(1 << 20, 1.0, slow_link, AdvisorPolicy{});
  EXPECT_EQ(advice.strategy, RemoteStrategy::kCopy);
}

TEST(AdvisorTest, SparseAccessPrefersProxy) {
  // "If an application reads a small fraction of the remote file, it may
  // not warrant copying it".
  nws::LinkEstimate link{0.01, 10e6};
  const Advice advice = advise(1u << 30, 0.01, link, AdvisorPolicy{});
  EXPECT_EQ(advice.strategy, RemoteStrategy::kProxy);
}

TEST(AdvisorTest, HugeFileAboveCapNeverCopies) {
  AdvisorPolicy policy;
  policy.max_copy_bytes = 1u << 20;
  nws::LinkEstimate link{0.3, 1e6};
  const Advice advice = advise(10u << 20, 1.0, link, policy);
  EXPECT_EQ(advice.strategy, RemoteStrategy::kProxy);
}

TEST(AdvisorTest, CrossoverMovesWithAccessFraction) {
  // Full scan of a big file: copy. Tiny fraction: proxy. Somewhere in
  // between the advice flips exactly once.
  nws::LinkEstimate link{0.05, 5e6};
  int flips = 0;
  RemoteStrategy last = advise(100u << 20, 0.001, link).strategy;
  EXPECT_EQ(last, RemoteStrategy::kProxy);
  for (double fraction = 0.002; fraction <= 1.0; fraction += 0.002) {
    const RemoteStrategy now =
        advise(100u << 20, fraction, link).strategy;
    if (now != last) ++flips;
    last = now;
  }
  EXPECT_EQ(flips, 1);
  EXPECT_EQ(last, RemoteStrategy::kCopy);
}

TEST(AdvisorTest, CostsAreReported) {
  nws::LinkEstimate link{0.1, 1e6};
  const Advice advice = advise(1u << 20, 0.5, link);
  EXPECT_GT(advice.copy_cost_seconds, 0);
  EXPECT_GT(advice.proxy_cost_seconds, 0);
}

}  // namespace
}  // namespace griddles::remote
