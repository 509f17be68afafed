// Tests for the Grid Buffer: channel store semantics (hash-table blocks,
// blocking reads, delete-on-consume, cache-file re-reads, broadcast,
// backpressure), the RPC server, and the writer/reader clients.
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "src/common/strings.h"
#include "src/common/tempfile.h"
#include "src/fault/plan.h"
#include "src/gridbuffer/client.h"
#include "src/gridbuffer/file_client.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"
#include "src/net/tcp.h"
#include "src/obs/metrics.h"
#include "src/workflow/runner.h"
#include "src/xdr/codec.h"

namespace griddles::gridbuffer {
namespace {

Bytes pattern(std::size_t n, unsigned seed = 1) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 37 + seed) & 0xFF);
  }
  return out;
}

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : dir_(*TempDir::create("gbuf-test")) {}

  std::shared_ptr<Channel> make_channel(ChannelConfig config,
                                        const std::string& name = "ch") {
    return std::make_shared<Channel>(
        name, config, dir_.file(name + ".cache").string());
  }

  TempDir dir_;
};

TEST_F(ChannelTest, SequentialWriteReadEof) {
  ChannelConfig config;
  config.block_size = 16;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  const Bytes data = pattern(40);
  ASSERT_TRUE(channel->write(0, ByteSpan{data.data(), 16}).is_ok());
  ASSERT_TRUE(channel->write(16, ByteSpan{data.data() + 16, 16}).is_ok());
  ASSERT_TRUE(channel->write(32, ByteSpan{data.data() + 32, 8}).is_ok());
  channel->close_writer();

  Bytes got;
  std::uint64_t offset = 0;
  while (true) {
    auto result = channel->read(reader, offset, 7, 1000);
    ASSERT_TRUE(result.is_ok());
    if (result->eof) break;
    got.insert(got.end(), result->data.begin(), result->data.end());
    offset += result->data.size();
  }
  EXPECT_EQ(got, data);
}

TEST_F(ChannelTest, ReadBlocksUntilWritten) {
  ChannelConfig config;
  config.block_size = 8;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  std::atomic<bool> served{false};
  std::thread consumer([&] {
    auto result = channel->read(reader, 0, 8, 5000);
    ASSERT_TRUE(result.is_ok());
    EXPECT_EQ(result->data.size(), 8u);
    served = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(served);  // paper: "the read operation can be blocked
                         // until the data is written"
  ASSERT_TRUE(channel->write(0, pattern(8)).is_ok());
  consumer.join();
  EXPECT_TRUE(served);
}

TEST_F(ChannelTest, ReadTimesOut) {
  auto channel = make_channel(ChannelConfig{});
  const auto reader = channel->add_reader();
  auto result = channel->read(reader, 0, 1, 40);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
}

TEST_F(ChannelTest, ConsumedBlocksAreDeletedFromTable) {
  ChannelConfig config;
  config.block_size = 8;
  config.cache_enabled = false;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  ASSERT_TRUE(channel->write(0, pattern(8)).is_ok());
  ASSERT_TRUE(channel->write(8, pattern(8)).is_ok());
  EXPECT_EQ(channel->buffered_blocks(), 2u);
  // One multi-block read consumes both blocks...
  auto result = channel->read(reader, 0, 16, 1000);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->data.size(), 16u);
  // ...and the only reader has consumed them: table drained.
  EXPECT_EQ(channel->buffered_blocks(), 0u);
}

TEST_F(ChannelTest, RereadWithoutCacheFails) {
  ChannelConfig config;
  config.block_size = 8;
  config.cache_enabled = false;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  ASSERT_TRUE(channel->write(0, pattern(8)).is_ok());
  ASSERT_TRUE(channel->read(reader, 0, 8, 1000).is_ok());
  auto again = channel->read(reader, 0, 8, 1000);
  EXPECT_FALSE(again.is_ok());
  EXPECT_EQ(again.status().code(), ErrorCode::kOutOfRange);
}

TEST_F(ChannelTest, RereadServedFromCacheFile) {
  // §5.3: "Because the data has already been deleted from the hash table
  // in the Grid Buffer Service, it is read from the cache file instead."
  ChannelConfig config;
  config.block_size = 8;
  config.cache_enabled = true;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  const Bytes data = pattern(24);
  for (std::uint64_t off = 0; off < 24; off += 8) {
    ASSERT_TRUE(channel->write(off, ByteSpan{data.data() + off, 8}).is_ok());
  }
  // Consume everything (evicts from the hash table)...
  for (std::uint64_t off = 0; off < 24; off += 8) {
    ASSERT_TRUE(channel->read(reader, off, 8, 1000).is_ok());
  }
  EXPECT_EQ(channel->buffered_blocks(), 0u);
  // ...then seek back and re-read: cache serves it (reads may be short
  // at block boundaries, so accumulate).
  Bytes reread;
  std::uint64_t offset = 4;
  while (reread.size() < 12) {
    auto result = channel->read(reader, offset,
                                static_cast<std::uint32_t>(12 -
                                                           reread.size()),
                                1000);
    ASSERT_TRUE(result.is_ok());
    ASSERT_FALSE(result->data.empty());
    reread.insert(reread.end(), result->data.begin(), result->data.end());
    offset += result->data.size();
  }
  EXPECT_EQ(reread, Bytes(data.begin() + 4, data.begin() + 16));
}

TEST_F(ChannelTest, CacheRereadAndSeekAfterWriterClose) {
  // A late (or re-run) reader arrives after the writer closed and every
  // block was consumed: the whole stream must still be readable — and
  // seekable — out of the cache file.
  ChannelConfig config;
  config.block_size = 8;
  config.cache_enabled = true;
  auto channel = make_channel(config);
  const auto first = channel->add_reader();
  const Bytes data = pattern(40);
  for (std::uint64_t off = 0; off < 40; off += 8) {
    ASSERT_TRUE(channel->write(off, ByteSpan{data.data() + off, 8}).is_ok());
  }
  channel->close_writer();
  for (std::uint64_t off = 0; off < 40; off += 8) {
    ASSERT_TRUE(channel->read(first, off, 8, 1000).is_ok());
  }
  channel->remove_reader(first);
  EXPECT_EQ(channel->buffered_blocks(), 0u);

  const auto second = channel->add_reader();
  // Sequential drain from the cache, then EOF at the frontier.
  Bytes drained;
  std::uint64_t offset = 0;
  while (true) {
    auto result = channel->read(second, offset, 16, 1000);
    ASSERT_TRUE(result.is_ok()) << result.status();
    if (result->eof) break;
    ASSERT_FALSE(result->data.empty());
    drained.insert(drained.end(), result->data.begin(),
                   result->data.end());
    offset += result->data.size();
  }
  EXPECT_EQ(drained, data);
  // Seek back mid-stream and re-read a span.
  auto mid = channel->read(second, 12, 8, 1000);
  ASSERT_TRUE(mid.is_ok());
  ASSERT_FALSE(mid->data.empty());
  EXPECT_EQ(mid->data[0], data[12]);
}

TEST_F(ChannelTest, WriterDeathDrainsThenSurfacesDataLoss) {
  // Peer-death tolerance: covered data stays readable (drain), reads
  // past the dead writer's frontier fail typed, and a late clean close
  // must not turn the truncation into EOF.
  ChannelConfig config;
  config.block_size = 8;
  config.cache_enabled = true;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  const Bytes data = pattern(16);
  ASSERT_TRUE(channel->write(0, ByteSpan{data.data(), 8}).is_ok());
  ASSERT_TRUE(channel->write(8, ByteSpan{data.data() + 8, 8}).is_ok());
  channel->fail_writer("test-induced death");
  EXPECT_TRUE(channel->writer_failed());

  // Further writes are refused with kDataLoss.
  auto late = channel->write(16, ByteSpan{data.data(), 8});
  EXPECT_FALSE(late.is_ok());
  EXPECT_EQ(late.code(), ErrorCode::kDataLoss);

  // The covered prefix drains normally...
  auto head = channel->read(reader, 0, 16, 1000);
  ASSERT_TRUE(head.is_ok()) << head.status();
  EXPECT_EQ(head->data, data);

  // ...the uncovered tail is a typed loss, not a hang and not EOF —
  // even after the dying writer's teardown sends a clean close.
  channel->close_writer();
  auto tail = channel->read(reader, 16, 8, 1000);
  EXPECT_FALSE(tail.is_ok());
  EXPECT_EQ(tail.status().code(), ErrorCode::kDataLoss);

  auto stat = channel->stat(/*wait_for_eof=*/true, 1000);
  EXPECT_FALSE(stat.is_ok());
  EXPECT_EQ(stat.status().code(), ErrorCode::kDataLoss);
}

TEST_F(ChannelTest, OutOfOrderWritesAssemble) {
  // The hash table exists precisely so blocks may arrive out of order
  // (multiple flusher streams).
  ChannelConfig config;
  config.block_size = 8;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  const Bytes data = pattern(32);
  ASSERT_TRUE(channel->write(24, ByteSpan{data.data() + 24, 8}).is_ok());
  ASSERT_TRUE(channel->write(8, ByteSpan{data.data() + 8, 8}).is_ok());
  ASSERT_TRUE(channel->write(0, ByteSpan{data.data() + 0, 8}).is_ok());
  ASSERT_TRUE(channel->write(16, ByteSpan{data.data() + 16, 8}).is_ok());
  channel->close_writer();
  Bytes got;
  std::uint64_t offset = 0;
  while (got.size() < 32) {
    auto result = channel->read(reader, offset, 32, 1000);
    ASSERT_TRUE(result.is_ok());
    got.insert(got.end(), result->data.begin(), result->data.end());
    offset += result->data.size();
  }
  EXPECT_EQ(got, data);
}

TEST_F(ChannelTest, BroadcastBothReadersSeeAll) {
  // Paper §4: "one application may write to the buffer, but many may
  // read the buffer".
  ChannelConfig config;
  config.block_size = 8;
  config.expected_readers = 2;
  config.cache_enabled = false;
  auto channel = make_channel(config);
  const auto r1 = channel->add_reader();
  const auto r2 = channel->add_reader();
  const Bytes data = pattern(16);
  ASSERT_TRUE(channel->write(0, ByteSpan{data.data(), 8}).is_ok());
  ASSERT_TRUE(channel->write(8, ByteSpan{data.data() + 8, 8}).is_ok());

  // r1 consumes everything; blocks must survive for r2.
  ASSERT_TRUE(channel->read(r1, 0, 8, 1000).is_ok());
  ASSERT_TRUE(channel->read(r1, 8, 8, 1000).is_ok());
  EXPECT_EQ(channel->buffered_blocks(), 2u);
  auto b0 = channel->read(r2, 0, 8, 1000);
  ASSERT_TRUE(b0.is_ok());
  EXPECT_EQ(b0->data, Bytes(data.begin(), data.begin() + 8));
  ASSERT_TRUE(channel->read(r2, 8, 8, 1000).is_ok());
  // Now both readers consumed both blocks.
  EXPECT_EQ(channel->buffered_blocks(), 0u);
}

TEST_F(ChannelTest, EarlyWriterWaitsForExpectedReaders) {
  // With expected_readers=1 and no reader registered yet, nothing may be
  // evicted (a late reader must still see the data).
  ChannelConfig config;
  config.block_size = 8;
  config.cache_enabled = false;
  auto channel = make_channel(config);
  ASSERT_TRUE(channel->write(0, pattern(8)).is_ok());
  EXPECT_EQ(channel->buffered_blocks(), 1u);
  const auto reader = channel->add_reader();
  auto result = channel->read(reader, 0, 8, 1000);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->data.size(), 8u);
}

TEST_F(ChannelTest, BackpressureSpillsToCache) {
  ChannelConfig config;
  config.block_size = 1024;
  config.cache_enabled = true;
  config.max_buffered_bytes = 4096;  // 4 blocks
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  // Write 16 blocks with no reads: table stays bounded, data spills.
  const Bytes data = pattern(16 * 1024);
  for (std::uint64_t off = 0; off < data.size(); off += 1024) {
    ASSERT_TRUE(channel->write(off, ByteSpan{data.data() + off, 1024}).is_ok());
  }
  EXPECT_LE(channel->buffered_bytes(), 4096u);
  channel->close_writer();
  // Everything is still readable (cache serves the spilled prefix).
  Bytes got;
  std::uint64_t offset = 0;
  while (got.size() < data.size()) {
    auto result = channel->read(reader, offset, 4096, 1000);
    ASSERT_TRUE(result.is_ok());
    ASSERT_FALSE(result->eof);
    got.insert(got.end(), result->data.begin(), result->data.end());
    offset += result->data.size();
  }
  EXPECT_EQ(got, data);
}

TEST_F(ChannelTest, BackpressureBlocksWriterWithoutCache) {
  ChannelConfig config;
  config.block_size = 1024;
  config.cache_enabled = false;
  config.max_buffered_bytes = 2048;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  ASSERT_TRUE(channel->write(0, pattern(1024)).is_ok());
  ASSERT_TRUE(channel->write(1024, pattern(1024)).is_ok());
  std::atomic<bool> third_done{false};
  std::thread writer([&] {
    ASSERT_TRUE(channel->write(2048, pattern(1024)).is_ok());
    third_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(third_done);  // writer is blocked: table full, no cache
  ASSERT_TRUE(channel->read(reader, 0, 1024, 1000).is_ok());  // frees one
  writer.join();
  EXPECT_TRUE(third_done);
}

TEST_F(ChannelTest, ShutdownWakesBlockedReader) {
  auto channel = make_channel(ChannelConfig{});
  const auto reader = channel->add_reader();
  std::thread consumer([&] {
    auto result = channel->read(reader, 0, 8, 0);
    EXPECT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kAborted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  channel->shutdown();
  consumer.join();
}

TEST_F(ChannelTest, MisalignedWriteRejected) {
  ChannelConfig config;
  config.block_size = 8;
  auto channel = make_channel(config);
  EXPECT_FALSE(channel->write(3, pattern(4)).is_ok());
  EXPECT_FALSE(channel->write(4, pattern(9)).is_ok());
}

TEST_F(ChannelTest, PartialBlockExtension) {
  ChannelConfig config;
  config.block_size = 16;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  const Bytes data = pattern(16);
  // Flush-style partial write, then the extended full block.
  ASSERT_TRUE(channel->write(0, ByteSpan{data.data(), 6}).is_ok());
  auto early = channel->read(reader, 0, 16, 1000);
  ASSERT_TRUE(early.is_ok());
  EXPECT_EQ(early->data.size(), 6u);
  ASSERT_TRUE(channel->write(0, ByteSpan{data.data(), 16}).is_ok());
  auto rest = channel->read(reader, 6, 16, 1000);
  ASSERT_TRUE(rest.is_ok());
  EXPECT_EQ(rest->data, Bytes(data.begin() + 6, data.end()));
  // Shrinking a block is rejected.
  EXPECT_FALSE(channel->write(0, ByteSpan{data.data(), 4}).is_ok());
}

TEST_F(ChannelTest, RunWithPartialLastBlockIsExtendedByTheNextRun) {
  ChannelConfig config;
  config.block_size = 8;
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  const Bytes data = pattern(40);
  // One run: blocks 0 and 1 whole, block 2 partial.
  ASSERT_TRUE(channel->write(0, ByteSpan{data.data(), 20}).is_ok());
  auto head = channel->read(reader, 0, 40, 1000);
  ASSERT_TRUE(head.is_ok());
  EXPECT_EQ(head->data, Bytes(data.begin(), data.begin() + 20));
  EXPECT_EQ(head->frontier, 20u);
  // A run that would shrink the partial block is rejected whole.
  EXPECT_FALSE(channel->write(16, ByteSpan{data.data() + 16, 2}).is_ok());
  // The next run rewrites block 2 with more data and goes on.
  ASSERT_TRUE(channel->write(16, ByteSpan{data.data() + 16, 24}).is_ok());
  auto rest = channel->read(reader, 20, 40, 1000);
  ASSERT_TRUE(rest.is_ok());
  EXPECT_EQ(rest->data, Bytes(data.begin() + 20, data.end()));
}

TEST_F(ChannelTest, RunLargerThanTableSpillsItsOwnBlocks) {
  ChannelConfig config;
  config.block_size = 8;
  config.max_buffered_bytes = 16;  // two blocks
  auto channel = make_channel(config);
  const auto reader = channel->add_reader();
  const Bytes data = pattern(44);
  ASSERT_TRUE(channel->write(0, data).is_ok());
  EXPECT_LE(channel->buffered_bytes(), 16u);
  channel->close_writer();
  // The spilled blocks of the run come back from the cache file.
  auto all = channel->read(reader, 0, 64, 1000);
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all->data, data);
}

TEST_F(ChannelTest, StatWaitsForEof) {
  auto channel = make_channel(ChannelConfig{});
  std::atomic<bool> got_eof{false};
  std::thread waiter([&] {
    auto result = channel->stat(true, 5000);
    ASSERT_TRUE(result.is_ok());
    EXPECT_TRUE(result->eof);
    got_eof = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got_eof);
  channel->close_writer();
  waiter.join();
}

TEST_F(ChannelTest, WriteAfterCloseRejected) {
  auto channel = make_channel(ChannelConfig{});
  channel->close_writer();
  EXPECT_FALSE(channel->write(0, pattern(8)).is_ok());
}

TEST(ChannelStoreTest, OpenIsIdempotentButConfigSticky) {
  auto dir = TempDir::create("store-test");
  ChannelStore store(dir->path().string());
  ChannelConfig config;
  config.block_size = 512;
  auto a = store.open("x", config);
  ASSERT_TRUE(a.is_ok());
  auto b = store.open("x", config);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->get(), b->get());
  ChannelConfig other;
  other.block_size = 1024;
  EXPECT_FALSE(store.open("x", other).is_ok());
  EXPECT_FALSE(store.find("y").is_ok());
  EXPECT_TRUE(store.find("x").is_ok());
}

TEST(ChannelStoreTest, RemoveRequiresClosedWriter) {
  auto dir = TempDir::create("store-rm");
  ChannelStore store(dir->path().string());
  auto channel = store.open("x", ChannelConfig{});
  ASSERT_TRUE(channel.is_ok());
  EXPECT_FALSE(store.remove("x").is_ok());
  (*channel)->close_writer();
  EXPECT_TRUE(store.remove("x").is_ok());
  EXPECT_FALSE(store.find("x").is_ok());
}

// ---- End-to-end over RPC ----------------------------------------------

class GridBufferE2ETest : public ::testing::TestWithParam<bool> {
 protected:
  GridBufferE2ETest()
      : dir_(*TempDir::create("gbuf-e2e")), network_(clock_),
        server_transport_(network_.transport("dione")),
        client_transport_(network_.transport("jagan")),
        server_(dir_.file("cache").string(), *server_transport_,
                net::inproc_endpoint("dione", "gbuf"),
                GetParam() ? net::WireFormat::kSoap
                           : net::WireFormat::kBinary) {
    EXPECT_TRUE(server_.start().is_ok());
  }
  ~GridBufferE2ETest() override { server_.stop(); }

  net::WireFormat format() const {
    return GetParam() ? net::WireFormat::kSoap : net::WireFormat::kBinary;
  }

  TempDir dir_;
  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> server_transport_;
  std::unique_ptr<net::Transport> client_transport_;
  GridBufferServer server_;
};

TEST_P(GridBufferE2ETest, StreamOverlapsWriterAndReader) {
  const Bytes data = pattern(1 << 18, 9);
  GridBufferWriter::Options writer_options;
  writer_options.channel.block_size = 4096;
  writer_options.wire = format();

  std::thread producer([&] {
    auto writer = GridBufferWriter::open(
        *client_transport_, server_.endpoint(), "e2e/stream",
        writer_options);
    ASSERT_TRUE(writer.is_ok());
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t chunk = std::min<std::size_t>(10000,
                                                      data.size() - offset);
      ASSERT_TRUE(
          (*writer)->write({data.data() + offset, chunk}).is_ok());
      offset += chunk;
    }
    ASSERT_TRUE((*writer)->close().is_ok());
  });

  GridBufferReader::Options reader_options;
  reader_options.wire = format();
  auto reader = GridBufferReader::open(*client_transport_,
                                       server_.endpoint(), "e2e/stream",
                                       reader_options);
  ASSERT_TRUE(reader.is_ok());
  Bytes got;
  Bytes buffer(7777);
  while (true) {
    auto n = (*reader)->read({buffer.data(), buffer.size()});
    ASSERT_TRUE(n.is_ok());
    if (*n == 0) break;
    got.insert(got.end(), buffer.begin(),
               buffer.begin() + static_cast<std::ptrdiff_t>(*n));
  }
  producer.join();
  EXPECT_EQ(got, data);
  EXPECT_EQ((*reader)->size().value(), data.size());
  ASSERT_TRUE((*reader)->close().is_ok());
}

TEST_P(GridBufferE2ETest, SeekBackAndRereadThroughCache) {
  const Bytes data = pattern(50000, 3);
  GridBufferWriter::Options writer_options;
  writer_options.channel.block_size = 4096;
  writer_options.channel.cache_enabled = true;
  writer_options.wire = format();
  auto writer = GridBufferWriter::open(
      *client_transport_, server_.endpoint(), "e2e/seek", writer_options);
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE((*writer)->write(data).is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());

  GridBufferReader::Options reader_options;
  reader_options.wire = format();
  auto reader = GridBufferReader::open(*client_transport_,
                                       server_.endpoint(), "e2e/seek",
                                       reader_options);
  ASSERT_TRUE(reader.is_ok());
  Bytes all(data.size());
  ASSERT_TRUE((*reader)->read({all.data(), all.size()}).is_ok());
  EXPECT_EQ(all, data);
  // Arbitrary seek back (paper: "even perform arbitrary seeks").
  ASSERT_TRUE((*reader)->seek(12345, 0).is_ok());
  Bytes window(1000);
  ASSERT_TRUE((*reader)->read({window.data(), window.size()}).is_ok());
  EXPECT_EQ(window, Bytes(data.begin() + 12345, data.begin() + 13345));
  // Relative and end-based seeks.
  ASSERT_TRUE((*reader)->seek(-500, 1).is_ok());
  EXPECT_EQ((*reader)->tell(), 12845u);
  ASSERT_TRUE((*reader)->seek(-100, 2).is_ok());
  EXPECT_EQ((*reader)->tell(), data.size() - 100);
}

TEST_P(GridBufferE2ETest, FileClientAdapterRoundTrip) {
  if (format() == net::WireFormat::kSoap) {
    GTEST_SKIP() << "file-client adapter path is exercised binary-only";
  }
  ChannelConfig config;
  config.block_size = 1024;
  const Bytes data = pattern(30000, 5);

  std::thread producer([&] {
    auto writer = GridBufferFileClient::open(
        *client_transport_, server_.endpoint(), "e2e/fc",
        vfs::OpenFlags::output(), config);
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(vfs::write_all(**writer, data).is_ok());
    ASSERT_TRUE((*writer)->close().is_ok());
  });
  auto reader = GridBufferFileClient::open(
      *client_transport_, server_.endpoint(), "e2e/fc",
      vfs::OpenFlags::input(), config);
  ASSERT_TRUE(reader.is_ok());
  auto got = vfs::read_all(**reader);
  producer.join();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, data);

  // Read-write opens are rejected; writer seeks are rejected.
  auto rw = GridBufferFileClient::open(*client_transport_,
                                       server_.endpoint(), "e2e/fc2",
                                       vfs::OpenFlags::update(), config);
  EXPECT_FALSE(rw.is_ok());
}

INSTANTIATE_TEST_SUITE_P(Formats, GridBufferE2ETest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Soap" : "Binary";
                         });

// Property test: random interleavings of writer chunk sizes and reader
// chunk sizes with occasional backward seeks always deliver the exact
// stream.
TEST(GridBufferPropertyTest, RandomChunkingAndSeeks) {
  auto dir = TempDir::create("gbuf-prop");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("dione");
  auto client_transport = network.transport("jagan");
  GridBufferServer server(dir->file("cache").string(), *server_transport,
                          net::inproc_endpoint("dione", "gbuf"));
  ASSERT_TRUE(server.start().is_ok());

  std::mt19937 rng(424242);
  for (int trial = 0; trial < 8; ++trial) {
    const std::string channel = "prop/" + std::to_string(trial);
    const Bytes data = pattern(20000 + rng() % 30000, trial + 1);

    GridBufferWriter::Options writer_options;
    writer_options.channel.block_size = 512 << (rng() % 3);
    writer_options.flusher_threads = 1 + static_cast<int>(rng() % 4);
    std::thread producer([&] {
      auto writer = GridBufferWriter::open(
          *client_transport, server.endpoint(), channel, writer_options);
      ASSERT_TRUE(writer.is_ok());
      std::mt19937 wrng(trial);
      std::size_t offset = 0;
      while (offset < data.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            1 + wrng() % 5000, data.size() - offset);
        ASSERT_TRUE((*writer)->write({data.data() + offset, chunk}).is_ok());
        offset += chunk;
      }
      ASSERT_TRUE((*writer)->close().is_ok());
    });

    GridBufferReader::Options reader_options;
    reader_options.channel.block_size = writer_options.channel.block_size;
    auto reader = GridBufferReader::open(*client_transport,
                                         server.endpoint(), channel,
                                         reader_options);
    ASSERT_TRUE(reader.is_ok());
    Bytes got(data.size());
    std::size_t position = 0;
    std::size_t high_water = 0;
    int seeks_left = 3;
    std::mt19937 rrng(trial * 7 + 1);
    while (high_water < data.size()) {
      // Occasionally jump backwards and re-read (cache path).
      if (seeks_left > 0 && high_water > 2000 && rrng() % 5 == 0) {
        const std::size_t back = rrng() % high_water;
        ASSERT_TRUE(
            (*reader)->seek(static_cast<std::int64_t>(back), 0).is_ok());
        position = back;
        --seeks_left;
      }
      Bytes buffer(1 + rrng() % 4000);
      auto n = (*reader)->read({buffer.data(), buffer.size()});
      ASSERT_TRUE(n.is_ok());
      if (*n == 0) break;
      ASSERT_LE(position + *n, data.size());
      // Verify against the reference data immediately.
      EXPECT_TRUE(std::equal(buffer.begin(),
                             buffer.begin() + static_cast<std::ptrdiff_t>(*n),
                             data.begin() +
                                 static_cast<std::ptrdiff_t>(position)))
          << "mismatch at " << position << " trial " << trial;
      position += *n;
      high_water = std::max(high_water, position);
    }
    EXPECT_EQ(high_water, data.size());
    producer.join();
    ASSERT_TRUE((*reader)->close().is_ok());
  }
  server.stop();
}

TEST(GridBufferReaderTest, OverlongReadReplyIsDataLoss) {
  // A server that answers kRead with more bytes than were asked for must
  // not make the reader write past the caller's buffer.
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("dione");
  auto client_transport = network.transport("jagan");
  net::RpcServer stub(*server_transport, net::inproc_endpoint("dione", "gb"));
  stub.register_method(method_id(Method::kOpenRead),
                       [](const Buffer&, const net::RpcContext&)
                           -> Result<Buffer> {
                         xdr::Encoder enc;
                         enc.put_u64(1);
                         return std::move(enc).finish();
                       });
  stub.register_method(method_id(Method::kRead),
                       [](const Buffer& request, const net::RpcContext&)
                           -> Result<Buffer> {
                         xdr::Decoder dec(request);
                         (void)dec.string();
                         (void)dec.u64();
                         (void)dec.u64();
                         const std::uint32_t length = dec.u32().value();
                         xdr::Encoder enc;
                         enc.put_bool(false);
                         enc.put_u64(1 << 20);
                         enc.put_bytes(pattern(length + 10));
                         return std::move(enc).finish();
                       });
  stub.register_method(method_id(Method::kCloseRead),
                       [](const Buffer&, const net::RpcContext&)
                           -> Result<Buffer> { return Buffer{}; });
  ASSERT_TRUE(stub.start().is_ok());

  auto reader =
      GridBufferReader::open(*client_transport, stub.endpoint(), "evil");
  ASSERT_TRUE(reader.is_ok());
  Bytes out(64 + 16, std::byte{0x11});
  auto n = (*reader)->read({out.data(), 64});
  ASSERT_FALSE(n.is_ok());
  EXPECT_EQ(n.status().code(), ErrorCode::kDataLoss);
  // The guard bytes past the caller's 64 are untouched.
  EXPECT_EQ(Bytes(out.begin() + 64, out.end()), Bytes(16, std::byte{0x11}));
  stub.stop();
}

/// Writes `data` through a GridBufferWriter on `transport`, then scribbles
/// over the writer's source bytes and closes the writer (and with it every
/// connection that carried the blocks) before a reader drains the channel:
/// the channel table's slices must still hold the original bytes.
void expect_blocks_outlive_sender(net::Transport& transport,
                                  const net::Endpoint& bind) {
  auto dir = TempDir::create("gbuf-lifetime");
  ASSERT_TRUE(dir.is_ok());
  GridBufferServer server(dir->file("cache").string(), transport, bind);
  ASSERT_TRUE(server.start().is_ok());
  const Bytes original = pattern(10 * 4096 + 123, 5);
  Bytes source = original;
  GridBufferWriter::Options options;
  options.channel.cache_enabled = false;  // reads come from the table
  {
    auto writer =
        GridBufferWriter::open(transport, server.endpoint(), "life", options);
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE((*writer)->write(source).is_ok());
    ASSERT_TRUE((*writer)->flush().is_ok());
    std::fill(source.begin(), source.end(), std::byte{0});
    ASSERT_TRUE((*writer)->close().is_ok());
  }
  GridBufferReader::Options reader_options;
  reader_options.channel = options.channel;
  auto reader = GridBufferReader::open(transport, server.endpoint(), "life",
                                       reader_options);
  ASSERT_TRUE(reader.is_ok());
  Bytes got(original.size() + 1);
  std::size_t filled = 0;
  while (true) {
    auto n = (*reader)->read({got.data() + filled, got.size() - filled});
    ASSERT_TRUE(n.is_ok()) << n.status();
    if (*n == 0) break;
    filled += *n;
  }
  got.resize(filled);
  EXPECT_EQ(got, original);
  server.stop();
}

TEST(GridBufferLifetimeTest, TableSlicesOutliveSenderInProc) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto transport = network.transport("dione");
  expect_blocks_outlive_sender(*transport,
                               net::inproc_endpoint("dione", "gbuf"));
}

TEST(GridBufferLifetimeTest, TableSlicesOutliveSenderTcp) {
  net::TcpTransport transport;
  expect_blocks_outlive_sender(transport, net::tcp_endpoint("127.0.0.1", 0));
}

// ---------------------------------------------------------------------
// Runs: one kWrite per contiguous run of blocks (DESIGN.md §16).

class RunPathTest : public ::testing::Test {
 protected:
  RunPathTest()
      : dir_(*TempDir::create("gbuf-runs")), network_(clock_),
        transport_(network_.transport("dione")),
        server_(dir_.file("cache").string(), *transport_,
                net::inproc_endpoint("dione", "gbuf")) {
    EXPECT_TRUE(server_.start().is_ok());
  }
  ~RunPathTest() override { server_.stop(); }

  static std::uint64_t server_requests() {
    return obs::MetricsRegistry::global().counter("rpc.server.requests")
        .value();
  }

  /// kWrite calls the server receives while `options` write `blocks`
  /// 4 KiB blocks in 64 KiB writes, then flush.
  std::uint64_t write_calls(const std::string& channel,
                            GridBufferWriter::Options options,
                            std::size_t blocks) {
    auto writer =
        GridBufferWriter::open(*transport_, server_.endpoint(), channel,
                               options);
    EXPECT_TRUE(writer.is_ok()) << writer.status();
    if (!writer.is_ok()) return 0;
    const Bytes data = pattern(blocks * 4096, 4);
    const std::uint64_t before = server_requests();
    for (std::size_t at = 0; at < data.size(); at += 65536) {
      EXPECT_TRUE((*writer)->write({data.data() + at, 65536}).is_ok());
    }
    EXPECT_TRUE((*writer)->flush().is_ok());
    const std::uint64_t calls = server_requests() - before;
    EXPECT_TRUE((*writer)->close().is_ok());
    return calls;
  }

  /// Reads `channel` from the start until EOF or an error; returns the
  /// bytes and the error (ok at EOF).
  std::pair<Bytes, Status> drain(const std::string& channel) {
    auto reader =
        GridBufferReader::open(*transport_, server_.endpoint(), channel);
    EXPECT_TRUE(reader.is_ok()) << reader.status();
    Bytes out;
    // One block per read, so a read that fails loses no delivered bytes.
    Bytes buffer(4096);
    Status status;
    while (reader.is_ok()) {
      auto n = (*reader)->read({buffer.data(), buffer.size()});
      if (!n.is_ok()) {
        status = n.status();
        break;
      }
      if (*n == 0) break;
      out.insert(out.end(), buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(*n));
    }
    return {out, status};
  }

  TempDir dir_;
  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> transport_;
  GridBufferServer server_;
};

TEST_F(RunPathTest, PaperOptionsSendOneBlockPerWrite) {
  GridBufferWriter::Options paper;
  paper.window_blocks = 4;
  paper.flusher_threads = 4;
  EXPECT_EQ(write_calls("paper", paper, 64), 64u);
}

TEST_F(RunPathTest, RunnerDefaultsSendRunsOfBlocks) {
  const workflow::WorkflowRunner::Options defaults;
  GridBufferWriter::Options runs;
  runs.window_blocks = defaults.writer_window;
  runs.flusher_threads = defaults.flusher_threads;
  const std::uint64_t calls = write_calls("runs", runs, 256);
  EXPECT_GE(calls, 1u);
  EXPECT_LE(calls, 256u / 8);  // >= 8 blocks per kWrite
}

TEST_F(RunPathTest, PartialLastBlockFlushedThenExtended) {
  const Bytes data = pattern(9 * 4096 + 300, 6);
  const std::size_t first = 3 * 4096 + 2048;  // ends mid-block
  auto writer = GridBufferWriter::open(*transport_, server_.endpoint(),
                                       "extend", GridBufferWriter::Options{});
  ASSERT_TRUE(writer.is_ok()) << writer.status();
  ASSERT_TRUE((*writer)->write({data.data(), first}).is_ok());
  ASSERT_TRUE((*writer)->flush().is_ok());
  auto channel = server_.store().find("extend");
  ASSERT_TRUE(channel.is_ok());
  auto stat = (*channel)->stat(/*wait_for_eof=*/false, 0);
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat->frontier, first);  // the partial block is on the server
  // The next run rewrites the partial block with more data (extends it).
  ASSERT_TRUE(
      (*writer)->write({data.data() + first, data.size() - first}).is_ok());
  ASSERT_TRUE((*writer)->close().is_ok());
  const auto [got, status] = drain("extend");
  EXPECT_TRUE(status.is_ok()) << status;
  EXPECT_EQ(got, data);
}

TEST_F(RunPathTest, PeerDeathInsideRunKeepsOneBlockFrontier) {
  // die@peer fires at the first block whose end reaches after=: blocks
  // 0..9 survive, whether they came one per kWrite or as one run.
  constexpr std::uint64_t kAfter = 10 * 4096 + 100;
  auto plan = fault::Plan::parse(
      strings::cat("seed=3;die@peer:death-*:after=", kAfter));
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  fault::arm(*plan);
  const Bytes data = pattern(64 * 4096, 8);
  std::vector<std::uint64_t> frontiers;
  for (const std::size_t window : {1, 16}) {
    const std::string channel = strings::cat("death-", window);
    GridBufferWriter::Options options;
    options.window_blocks = window;  // one sender: runs arrive in order
    options.flusher_threads = 1;
    auto writer = GridBufferWriter::open(*transport_, server_.endpoint(),
                                         channel, options);
    ASSERT_TRUE(writer.is_ok()) << writer.status();
    (void)(*writer)->write(data);  // may already see the death
    const Status closed = (*writer)->close();
    EXPECT_EQ(closed.code(), ErrorCode::kDataLoss) << channel;
    const auto [got, status] = drain(channel);
    EXPECT_EQ(status.code(), ErrorCode::kDataLoss) << channel;
    EXPECT_EQ(got, Bytes(data.begin(), data.begin() + 10 * 4096)) << channel;
    frontiers.push_back(got.size());
  }
  fault::disarm();
  EXPECT_EQ(frontiers[0], frontiers[1]);
}

TEST_F(RunPathTest, StalledReaderKeepsTableAtCapAndRereadsFromCache) {
  const Bytes data = pattern(8u << 20, 10);
  auto reader =
      GridBufferReader::open(*transport_, server_.endpoint(), "stalled");
  ASSERT_TRUE(reader.is_ok()) << reader.status();
  {
    auto writer =
        GridBufferWriter::open(*transport_, server_.endpoint(), "stalled");
    ASSERT_TRUE(writer.is_ok()) << writer.status();
    for (std::size_t at = 0; at < data.size(); at += 65536) {
      ASSERT_TRUE((*writer)->write({data.data() + at, 65536}).is_ok());
    }
    ASSERT_TRUE((*writer)->close().is_ok());
  }
  auto channel = server_.store().find("stalled");
  ASSERT_TRUE(channel.is_ok());
  EXPECT_LE((*channel)->buffered_bytes(), Channel::kCachedResidentBytes);
  Bytes got(data.size() + 1);
  std::size_t filled = 0;
  while (true) {
    auto n = (*reader)->read({got.data() + filled, got.size() - filled});
    ASSERT_TRUE(n.is_ok()) << n.status();
    if (*n == 0) break;
    filled += *n;
  }
  got.resize(filled);
  EXPECT_TRUE(got == data);
  ASSERT_TRUE((*reader)->close().is_ok());
}

}  // namespace
}  // namespace griddles::gridbuffer
