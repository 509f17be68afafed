// Tests for GlStream, the buffered line-oriented layer over the FM.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/tempfile.h"
#include "src/core/stream.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"

namespace griddles::core {
namespace {

class StreamTest : public ::testing::Test {
 protected:
  StreamTest() : dir_(*TempDir::create("stream-test")) {
    FileMultiplexer::Options options;
    options.host = "localhost";
    options.local_root = dir_.path().string();
    fm_ = std::make_unique<FileMultiplexer>(options);
  }
  TempDir dir_;
  std::unique_ptr<FileMultiplexer> fm_;
};

TEST_F(StreamTest, WriteLinesReadLinesBack) {
  {
    auto out = GlStream::open(*fm_, "lines.txt", "w");
    ASSERT_TRUE(out.is_ok());
    ASSERT_TRUE(out->write_line("first").is_ok());
    ASSERT_TRUE(out->write_line("").is_ok());
    ASSERT_TRUE(out->write_line("third line with spaces").is_ok());
    ASSERT_TRUE(out->close().is_ok());
  }
  auto in = GlStream::open(*fm_, "lines.txt", "r");
  ASSERT_TRUE(in.is_ok());
  EXPECT_EQ(in->read_line()->value(), "first");
  EXPECT_EQ(in->read_line()->value(), "");
  EXPECT_EQ(in->read_line()->value(), "third line with spaces");
  EXPECT_FALSE(in->read_line()->has_value());  // EOF
  EXPECT_FALSE(in->read_line()->has_value());  // stays EOF
}

TEST_F(StreamTest, FinalLineWithoutNewline) {
  {
    auto out = GlStream::open(*fm_, "tail.txt", "w");
    ASSERT_TRUE(out.is_ok());
    ASSERT_TRUE(out->write(as_bytes_view("a\nb")).is_ok());
    ASSERT_TRUE(out->close().is_ok());
  }
  auto in = GlStream::open(*fm_, "tail.txt", "r");
  ASSERT_TRUE(in.is_ok());
  EXPECT_EQ(in->read_line()->value(), "a");
  EXPECT_EQ(in->read_line()->value(), "b");
  EXPECT_FALSE(in->read_line()->has_value());
}

TEST_F(StreamTest, PrintfFormats) {
  {
    auto out = GlStream::open(*fm_, "fmt.txt", "w");
    ASSERT_TRUE(out.is_ok());
    ASSERT_TRUE(out->printf("step %04d: stress=%.2f\n", 7, 1.5).is_ok());
    // A line longer than the 512-byte stack buffer.
    std::string long_text(700, 'x');
    ASSERT_TRUE(out->printf("%s\n", long_text.c_str()).is_ok());
    ASSERT_TRUE(out->close().is_ok());
  }
  auto in = GlStream::open(*fm_, "fmt.txt", "r");
  ASSERT_TRUE(in.is_ok());
  EXPECT_EQ(in->read_line()->value(), "step 0007: stress=1.50");
  EXPECT_EQ(in->read_line()->value().size(), 700u);
}

TEST_F(StreamTest, LongLinesAcrossBufferBoundaries) {
  std::string giant(100000, 'q');
  {
    auto out = GlStream::open(*fm_, "giant.txt", "w");
    ASSERT_TRUE(out.is_ok());
    ASSERT_TRUE(out->write_line(giant).is_ok());
    ASSERT_TRUE(out->write_line("after").is_ok());
    ASSERT_TRUE(out->close().is_ok());
  }
  auto in = GlStream::open(*fm_, "giant.txt", "r");
  ASSERT_TRUE(in.is_ok());
  EXPECT_EQ(in->read_line()->value(), giant);
  EXPECT_EQ(in->read_line()->value(), "after");
}

TEST_F(StreamTest, AppendMode) {
  {
    auto out = GlStream::open(*fm_, "log.txt", "w");
    ASSERT_TRUE(out->write_line("one").is_ok());
  }
  {
    auto out = GlStream::open(*fm_, "log.txt", "a");
    ASSERT_TRUE(out->write_line("two").is_ok());
  }
  auto in = GlStream::open(*fm_, "log.txt", "r");
  EXPECT_EQ(in->read_line()->value(), "one");
  EXPECT_EQ(in->read_line()->value(), "two");
}

TEST_F(StreamTest, BadModeRejected) {
  EXPECT_FALSE(GlStream::open(*fm_, "x", "rw").is_ok());
  EXPECT_FALSE(GlStream::open(*fm_, "x", nullptr).is_ok());
}

TEST_F(StreamTest, MixedRawAndLineReads) {
  {
    auto out = GlStream::open(*fm_, "mixed.bin", "w");
    ASSERT_TRUE(out->write_line("header").is_ok());
    ASSERT_TRUE(out->write(as_bytes_view("raw-payload")).is_ok());
    ASSERT_TRUE(out->close().is_ok());
  }
  auto in = GlStream::open(*fm_, "mixed.bin", "r");
  EXPECT_EQ(in->read_line()->value(), "header");
  Bytes raw(11);
  auto got = in->read({raw.data(), raw.size()});
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, 11u);
  EXPECT_EQ(to_string(raw), "raw-payload");
}

TEST(StreamBufferTest, LinesThroughAGridBufferChannel) {
  // The line layer composes with any routing: stream lines from a writer
  // to a concurrently-running reader over a Grid Buffer.
  auto dir = TempDir::create("stream-gbuf");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto service_transport = network.transport("dione");
  gns::GnsCluster gns(*service_transport, gns::GnsCluster::Options{});
  ASSERT_TRUE(
      gns.add_replica("gns-0", net::inproc_endpoint("dione", "gns")).is_ok());
  ASSERT_TRUE(gns.start().is_ok());
  gridbuffer::GridBufferServer buffer_server(
      dir->file("gbuf").string(), *service_transport,
      net::inproc_endpoint("dione", "gbuf"));
  ASSERT_TRUE(buffer_server.start().is_ok());
  gns::MappingRule rule;
  rule.host_pattern = "*";
  rule.path_pattern = "*feed.txt";
  rule.mapping.mode = gns::IoMode::kGridBuffer;
  rule.mapping.channel = "stream/feed";
  rule.mapping.buffer_endpoint = buffer_server.endpoint().to_string();
  ASSERT_TRUE(gns.add_rule(rule).is_ok());

  auto transport = network.transport("jagan");
  gns::ReplicatedNameService gns_client(*transport);
  for (const gns::ReplicaAddress& replica : gns.endpoints()) {
    gns_client.add_replica(replica.name, replica.endpoint);
  }
  FileMultiplexer::Options options;
  options.host = "jagan";
  options.local_root = dir->file("work").string();
  options.gns = &gns_client;
  options.transport = transport.get();
  FileMultiplexer fm(options);

  constexpr int kLines = 500;
  std::thread producer([&] {
    auto out = GlStream::open(fm, "feed.txt", "w");
    ASSERT_TRUE(out.is_ok());
    for (int i = 0; i < kLines; ++i) {
      ASSERT_TRUE(out->printf("record %d value %d\n", i, i * i).is_ok());
    }
    ASSERT_TRUE(out->close().is_ok());
  });
  auto in = GlStream::open(fm, "feed.txt", "r");
  ASSERT_TRUE(in.is_ok());
  int count = 0;
  while (true) {
    auto line = in->read_line();
    ASSERT_TRUE(line.is_ok()) << line.status();
    if (!line->has_value()) break;
    EXPECT_EQ(**line, "record " + std::to_string(count) + " value " +
                          std::to_string(count * count));
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, kLines);
  buffer_server.stop();
  gns.stop();
}

}  // namespace
}  // namespace griddles::core
