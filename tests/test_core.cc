// Tests for the File Multiplexer core: GNS-driven routing across all six
// IO mechanisms, the staged/tailing/transcoding wrapper clients, the
// kAuto advisor path, and the POSIX-style shim. The central invariant —
// "mode transparency" — is tested directly: the same program bytes come
// back whatever the route.
#include <gtest/gtest.h>

#include <fstream>
#include <thread>

#include "src/common/tempfile.h"
#include "src/core/multiplexer.h"
#include "src/core/posix_shim.h"
#include "src/core/staged_client.h"
#include "src/core/tailing_client.h"
#include "src/core/transcode_client.h"
#include "src/gns/antientropy.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"
#include "src/remote/file_server.h"
#include "src/replica/catalog.h"
#include "src/vfs/local_client.h"

namespace griddles::core {
namespace {

Bytes pattern(std::size_t n, unsigned seed = 1) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 193 + seed) & 0xFF);
  }
  return out;
}

/// Full grid-in-a-box fixture: GNS, buffer server, file server, replica
/// catalog, NWS static estimator.
class FmTest : public ::testing::Test {
 protected:
  FmTest()
      : dir_(*TempDir::create("fm-test")), network_(clock_),
        services_transport_(network_.transport("dione")),
        gns_(*services_transport_, gns::GnsCluster::Options{}),
        buffer_server_(dir_.file("gbuf").string(), *services_transport_,
                       net::inproc_endpoint("dione", "gbuf")),
        file_server_(dir_.file("export"), *services_transport_,
                     net::inproc_endpoint("dione", "fs")),
        catalog_server_(catalog_, *services_transport_,
                        net::inproc_endpoint("dione", "rc")) {
    EXPECT_TRUE(
        gns_.add_replica("gns-0", net::inproc_endpoint("dione", "gns"))
            .is_ok());
    EXPECT_TRUE(gns_.start().is_ok());
    EXPECT_TRUE(buffer_server_.start().is_ok());
    EXPECT_TRUE(file_server_.start().is_ok());
    EXPECT_TRUE(catalog_server_.start().is_ok());
    estimator_.set("dione", {0.001, 10e6});
  }

  ~FmTest() override {
    buffer_server_.stop();
    file_server_.stop();
    catalog_server_.stop();
    gns_.stop();
  }

  /// Builds an FM for an application on `host`.
  struct Fm {
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<gns::ReplicatedNameService> gns;
    std::unique_ptr<FileMultiplexer> fm;
    FileMultiplexer* operator->() { return fm.get(); }
    FileMultiplexer& operator*() { return *fm; }
  };

  Fm make_fm(const std::string& host) {
    Fm out;
    out.transport = network_.transport(host);
    out.gns = std::make_unique<gns::ReplicatedNameService>(*out.transport);
    for (const gns::ReplicaAddress& replica : gns_.endpoints()) {
      out.gns->add_replica(replica.name, replica.endpoint);
    }
    FileMultiplexer::Options options;
    options.host = host;
    options.local_root = dir_.file("root-" + host).string();
    options.scratch_dir = dir_.file("scratch-" + host).string();
    options.gns = out.gns.get();
    options.transport = out.transport.get();
    options.estimator = &estimator_;
    out.fm = std::make_unique<FileMultiplexer>(options);
    return out;
  }

  void add_rule(const std::string& host, const std::string& path,
                gns::FileMapping mapping) {
    gns::MappingRule rule;
    rule.host_pattern = host;
    rule.path_pattern = path;
    rule.mapping = std::move(mapping);
    ASSERT_TRUE(gns_.add_rule(std::move(rule)).is_ok());
  }

  /// Writes `data` via one FM fd and reads it back via another.
  void roundtrip_through(Fm& fm, const std::string& path, ByteSpan data,
                         bool concurrent = false) {
    auto produce = [&] {
      auto fd = fm->open(path, vfs::OpenFlags::output());
      ASSERT_TRUE(fd.is_ok()) << fd.status();
      std::size_t offset = 0;
      while (offset < data.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            8000, data.size() - offset);
        auto put = fm->write(*fd, data.subspan(offset, chunk));
        ASSERT_TRUE(put.is_ok()) << put.status();
        offset += *put;
      }
      ASSERT_TRUE(fm->close(*fd).is_ok());
    };
    Bytes got;
    auto consume = [&] {
      auto fd = fm->open(path, vfs::OpenFlags::input());
      ASSERT_TRUE(fd.is_ok()) << fd.status();
      Bytes buffer(9001);
      while (true) {
        auto n = fm->read(*fd, {buffer.data(), buffer.size()});
        ASSERT_TRUE(n.is_ok()) << n.status();
        if (*n == 0) break;
        got.insert(got.end(), buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(*n));
      }
      ASSERT_TRUE(fm->close(*fd).is_ok());
    };
    if (concurrent) {
      std::thread producer(produce);
      consume();
      producer.join();
    } else {
      produce();
      consume();
    }
    EXPECT_EQ(got, Bytes(data.begin(), data.end()));
  }

  TempDir dir_;
  RealClock clock_;
  net::InProcNetwork network_;
  std::unique_ptr<net::Transport> services_transport_;
  gns::GnsCluster gns_;
  gridbuffer::GridBufferServer buffer_server_;
  remote::FileServer file_server_;
  replica::Catalog catalog_;
  replica::CatalogServer catalog_server_;
  nws::StaticLinkEstimator estimator_;
};

TEST_F(FmTest, DefaultsToLocalWithoutMapping) {
  auto fm = make_fm("jagan");
  roundtrip_through(fm, "plain.dat", pattern(50000));
  EXPECT_EQ(fm->stats().local_opens, 2u);
  EXPECT_EQ(fm->stats().buffer_opens, 0u);
}

TEST_F(FmTest, CanonicalPathAnchorsRelativeNames) {
  auto fm = make_fm("jagan");
  EXPECT_EQ(fm->canonical_path("/abs/x"), "/abs/x");
  const std::string canonical = fm->canonical_path("rel.dat");
  EXPECT_EQ(canonical, dir_.file("root-jagan/rel.dat").string());
}

TEST_F(FmTest, GridBufferMappingStreams) {
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kGridBuffer;
  mapping.channel = "t/stream";
  mapping.buffer_endpoint = buffer_server_.endpoint().to_string();
  add_rule("jagan", "*stream.dat", mapping);
  auto fm = make_fm("jagan");
  roundtrip_through(fm, "stream.dat", pattern(120000), /*concurrent=*/true);
  EXPECT_EQ(fm->stats().buffer_opens, 2u);
  EXPECT_EQ(fm->stats().local_opens, 0u);
}

TEST_F(FmTest, RemoteProxyMapping) {
  ASSERT_TRUE(vfs::write_file((file_server_.root() / "p.bin").string(),
                              pattern(30000, 3))
                  .is_ok());
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kRemoteProxy;
  mapping.remote_endpoint = file_server_.endpoint().to_string();
  mapping.remote_path = "p.bin";
  add_rule("jagan", "*proxy.dat", mapping);
  auto fm = make_fm("jagan");
  auto fd = fm->open("proxy.dat", vfs::OpenFlags::input());
  ASSERT_TRUE(fd.is_ok());
  EXPECT_EQ(fm->size(*fd).value(), 30000u);
  Bytes buffer(30000);
  EXPECT_EQ(fm->read(*fd, {buffer.data(), buffer.size()}).value(), 30000u);
  EXPECT_EQ(buffer, pattern(30000, 3));
  ASSERT_TRUE(fm->close(*fd).is_ok());
  EXPECT_EQ(fm->stats().proxy_opens, 1u);
}

TEST_F(FmTest, RemoteCopyStagesInAndOut) {
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kRemoteCopy;
  mapping.remote_endpoint = file_server_.endpoint().to_string();
  mapping.remote_path = "staged.bin";
  add_rule("jagan", "*staged.dat", mapping);
  auto fm = make_fm("jagan");
  roundtrip_through(fm, "staged.dat", pattern(70000, 7));
  EXPECT_EQ(fm->stats().staged_opens, 2u);
  // The write went back to the server.
  auto remote_copy = vfs::read_file(
      (file_server_.root() / "staged.bin").string());
  ASSERT_TRUE(remote_copy.is_ok());
  EXPECT_EQ(*remote_copy, pattern(70000, 7));
}

TEST_F(FmTest, AutoModePicksProxyForSparseAccess) {
  ASSERT_TRUE(vfs::write_file((file_server_.root() / "huge.bin").string(),
                              pattern(2 << 20))
                  .is_ok());
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kAuto;
  mapping.remote_endpoint = file_server_.endpoint().to_string();
  mapping.remote_path = "huge.bin";
  mapping.access_fraction = 0.001;
  add_rule("jagan", "*sparse.dat", mapping);
  estimator_.set("dione", {0.0001, 100e6});
  auto fm = make_fm("jagan");
  auto fd = fm->open("sparse.dat", vfs::OpenFlags::input());
  ASSERT_TRUE(fd.is_ok());
  EXPECT_EQ(fm->stats().proxy_opens, 1u);
  EXPECT_EQ(fm->stats().staged_opens, 0u);
  ASSERT_TRUE(fm->close(*fd).is_ok());
}

TEST_F(FmTest, AutoModePicksCopyOnHighLatencyFullScan) {
  ASSERT_TRUE(vfs::write_file((file_server_.root() / "scan.bin").string(),
                              pattern(1 << 20))
                  .is_ok());
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kAuto;
  mapping.remote_endpoint = file_server_.endpoint().to_string();
  mapping.remote_path = "scan.bin";
  mapping.access_fraction = 1.0;
  add_rule("jagan", "*scan.dat", mapping);
  estimator_.set("dione", {0.3, 1e6});  // nasty latency
  auto fm = make_fm("jagan");
  auto fd = fm->open("scan.dat", vfs::OpenFlags::input());
  ASSERT_TRUE(fd.is_ok());
  EXPECT_EQ(fm->stats().staged_opens, 1u);
  EXPECT_EQ(fm->stats().proxy_opens, 0u);
  ASSERT_TRUE(fm->close(*fd).is_ok());
}

TEST_F(FmTest, ReplicatedMappingSelectsAndReads) {
  const Bytes data = pattern(60000, 11);
  ASSERT_TRUE(vfs::write_file((file_server_.root() / "rep.bin").string(),
                              data)
                  .is_ok());
  catalog_.add("lfn/rep",
               {"dione", file_server_.endpoint().to_string(), "rep.bin",
                data.size(), fnv1a(data)});
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kReplicated;
  mapping.logical_name = "lfn/rep";
  mapping.catalog_endpoint = catalog_server_.endpoint().to_string();
  add_rule("jagan", "*rep.dat", mapping);
  auto fm = make_fm("jagan");
  auto fd = fm->open("rep.dat", vfs::OpenFlags::input());
  ASSERT_TRUE(fd.is_ok()) << fd.status();
  Bytes buffer(data.size());
  EXPECT_EQ(fm->read(*fd, {buffer.data(), buffer.size()}).value(),
            data.size());
  EXPECT_EQ(buffer, data);
  EXPECT_EQ(fm->stats().replicated_opens, 1u);
  // Writable open of a replicated file is refused.
  auto wr = fm->open("rep.dat", vfs::OpenFlags::output());
  EXPECT_FALSE(wr.is_ok());
  EXPECT_EQ(wr.status().code(), ErrorCode::kPermissionDenied);
  ASSERT_TRUE(fm->close(*fd).is_ok());
}

TEST_F(FmTest, PerOpenIndependence) {
  // Paper: "Each OPEN operation makes an independent choice, thus one
  // file may be located locally and another may be remote."
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kGridBuffer;
  mapping.channel = "t/mix";
  mapping.buffer_endpoint = buffer_server_.endpoint().to_string();
  add_rule("jagan", "*edge.dat", mapping);
  auto fm = make_fm("jagan");

  auto local_fd = fm->open("other.dat", vfs::OpenFlags::output());
  ASSERT_TRUE(local_fd.is_ok());
  auto buffer_fd = fm->open("edge.dat", vfs::OpenFlags::output());
  ASSERT_TRUE(buffer_fd.is_ok());
  EXPECT_NE(fm->describe(*local_fd).value().find("local:"),
            std::string::npos);
  EXPECT_NE(fm->describe(*buffer_fd).value().find("gridbuffer:"),
            std::string::npos);
  ASSERT_TRUE(fm->close_all().is_ok());
  EXPECT_EQ(fm->stats().local_opens, 1u);
  EXPECT_EQ(fm->stats().buffer_opens, 1u);
}

TEST_F(FmTest, BadDescriptorErrors) {
  auto fm = make_fm("jagan");
  Bytes buffer(1);
  EXPECT_FALSE(fm->read(77, {buffer.data(), 1}).is_ok());
  EXPECT_FALSE(fm->write(77, buffer).is_ok());
  EXPECT_FALSE(fm->seek(77, 0, vfs::Whence::kSet).is_ok());
  EXPECT_FALSE(fm->close(77).is_ok());
  EXPECT_FALSE(fm->describe(77).is_ok());
}

TEST_F(FmTest, RecordSchemaTranscodesTransparently) {
  gns::FileMapping mapping;
  mapping.mode = gns::IoMode::kLocal;
  mapping.record_schema = "f64[2], i32, c8[4]";
  add_rule("jagan", "*rec.dat", mapping);
  auto fm = make_fm("jagan");
  // 24-byte records; write three of them.
  struct Record {
    double a, b;
    std::int32_t c;
    char tag[4];
  } __attribute__((packed));
  static_assert(sizeof(Record) == 24);
  Record records[3] = {{1.5, -2.5, 42, {'a', 'b', 'c', 'd'}},
                       {3.25, 0.0, -7, {'e', 'f', 'g', 'h'}},
                       {9.75, 1e10, 123456, {'i', 'j', 'k', 'l'}}};
  {
    auto fd = fm->open("rec.dat", vfs::OpenFlags::output());
    ASSERT_TRUE(fd.is_ok());
    ASSERT_TRUE(fm->write(*fd, {reinterpret_cast<std::byte*>(records),
                                sizeof(records)})
                    .is_ok());
    ASSERT_TRUE(fm->close(*fd).is_ok());
  }
  // On disk the bytes are canonical big-endian — NOT the host bytes.
  auto raw = vfs::read_file(fm->canonical_path("rec.dat"));
  ASSERT_TRUE(raw.is_ok());
  if (std::endian::native == std::endian::little) {
    EXPECT_NE(std::memcmp(raw->data(), records, sizeof(records)), 0);
  }
  // Reading through the FM restores host order exactly.
  {
    auto fd = fm->open("rec.dat", vfs::OpenFlags::input());
    ASSERT_TRUE(fd.is_ok());
    Record back[3];
    EXPECT_EQ(fm->read(*fd, {reinterpret_cast<std::byte*>(back),
                             sizeof(back)})
                  .value(),
              sizeof(back));
    EXPECT_EQ(std::memcmp(back, records, sizeof(records)), 0);
    ASSERT_TRUE(fm->close(*fd).is_ok());
  }
}

TEST_F(FmTest, PosixShimDrivesTheFm) {
  auto fm = make_fm("jagan");
  glio_install(fm.fm.get());
  const int fd = glio_open("shim.dat", "w");
  ASSERT_GE(fd, 3);
  EXPECT_EQ(glio_write(fd, "hello", 5), 5);
  EXPECT_EQ(glio_flush(fd), 0);
  EXPECT_EQ(glio_close(fd), 0);

  const int rd = glio_open("shim.dat", "r");
  ASSERT_GE(rd, 3);
  char buffer[8] = {};
  EXPECT_EQ(glio_lseek(rd, 1, 0), 1);
  EXPECT_EQ(glio_read(rd, buffer, sizeof(buffer)), 4);
  EXPECT_STREQ(buffer, "ello");
  EXPECT_EQ(glio_read(rd, buffer, sizeof(buffer)), 0);  // EOF
  EXPECT_EQ(glio_close(rd), 0);

  EXPECT_EQ(glio_open("shim.dat", "x"), -1);  // bad mode
  EXPECT_NE(std::string(glio_last_error()).size(), 0u);
  EXPECT_EQ(glio_open("nope.dat", "r"), -1);
  glio_install(nullptr);
  EXPECT_EQ(glio_open("shim.dat", "r"), -1);
}

// ---- Wrapper clients directly -----------------------------------------

TEST(TranscodeClientTest, SeeksMustBeRecordAligned) {
  auto dir = TempDir::create("transcode");
  auto schema = xdr::RecordSchema::parse("i32[2]");
  ASSERT_TRUE(schema.is_ok());
  auto inner = vfs::LocalFileClient::open(dir->file("r.bin").string(),
                                          vfs::OpenFlags::output());
  ASSERT_TRUE(inner.is_ok());
  auto client = RecordTranscodingClient::wrap(std::move(*inner), *schema);
  ASSERT_TRUE(client.is_ok());
  std::int32_t record[2] = {1, 2};
  ASSERT_TRUE((*client)
                  ->write({reinterpret_cast<std::byte*>(record),
                           sizeof(record)})
                  .is_ok());
  EXPECT_TRUE((*client)->seek(8, vfs::Whence::kSet).is_ok());
  EXPECT_FALSE((*client)->seek(3, vfs::Whence::kSet).is_ok());
  ASSERT_TRUE((*client)->close().is_ok());
}

TEST(TranscodeClientTest, CloseWithPartialRecordFails) {
  auto dir = TempDir::create("transcode2");
  auto schema = xdr::RecordSchema::parse("i64");
  auto inner = vfs::LocalFileClient::open(dir->file("p.bin").string(),
                                          vfs::OpenFlags::output());
  auto client = RecordTranscodingClient::wrap(std::move(*inner), *schema);
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE((*client)->write(as_bytes_view("abc")).is_ok());  // 3 of 8
  EXPECT_FALSE((*client)->flush().is_ok());
  EXPECT_FALSE((*client)->close().is_ok());
}

TEST(TailingClientTest, ReadsGrowingFileToMarker) {
  auto dir = TempDir::create("tailing");
  const std::string path = dir->file("grow.log").string();
  ASSERT_TRUE(vfs::write_file(path, as_bytes_view("first ")).is_ok());
  RealClock clock;

  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto file = vfs::LocalFileClient::open(path,
                                           vfs::OpenFlags::appending());
    ASSERT_TRUE(file.is_ok());
    ASSERT_TRUE(vfs::write_all(**file, as_bytes_view("second")).is_ok());
    ASSERT_TRUE((*file)->close().is_ok());
    std::ofstream(TailingLocalFileClient::done_marker(path)).put('\n');
  });

  auto reader = TailingLocalFileClient::open(
      path, clock, nullptr, std::chrono::milliseconds(5));
  ASSERT_TRUE(reader.is_ok());
  Bytes got;
  Bytes buffer(64);
  while (true) {
    auto n = (*reader)->read({buffer.data(), buffer.size()});
    ASSERT_TRUE(n.is_ok());
    if (*n == 0) break;
    got.insert(got.end(), buffer.begin(),
               buffer.begin() + static_cast<std::ptrdiff_t>(*n));
  }
  producer.join();
  EXPECT_EQ(to_string(got), "first second");
  EXPECT_EQ((*reader)->size().value(), 12u);
  ASSERT_TRUE((*reader)->close().is_ok());
}

TEST(TailingClientTest, WaitsForFileCreation) {
  auto dir = TempDir::create("tailing-create");
  const std::string path = dir->file("late.log").string();
  RealClock clock;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(vfs::write_file(path, as_bytes_view("data")).is_ok());
    std::ofstream(TailingLocalFileClient::done_marker(path)).put('\n');
  });
  auto reader = TailingLocalFileClient::open(
      path, clock, nullptr, std::chrono::milliseconds(5));
  producer.join();
  ASSERT_TRUE(reader.is_ok());
  auto all = vfs::read_all(**reader);
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(to_string(*all), "data");
}

TEST(TailingClientTest, ProducerFinishedWithoutFileIsNotFound) {
  auto dir = TempDir::create("tailing-none");
  const std::string path = dir->file("never.log").string();
  std::ofstream(TailingLocalFileClient::done_marker(path)).put('\n');
  RealClock clock;
  auto reader = TailingLocalFileClient::open(
      path, clock, nullptr, std::chrono::milliseconds(5));
  EXPECT_FALSE(reader.is_ok());
  EXPECT_EQ(reader.status().code(), ErrorCode::kNotFound);
}

TEST(TailingClientTest, PollWaitHookIsInvoked) {
  auto dir = TempDir::create("tailing-hook");
  const std::string path = dir->file("h.log").string();
  ASSERT_TRUE(vfs::write_file(path, as_bytes_view("x")).is_ok());
  RealClock clock;
  std::atomic<int> polls{0};
  auto reader = TailingLocalFileClient::open(
      path, clock,
      [&](Duration d) {
        ++polls;
        std::this_thread::sleep_for(
            std::chrono::duration_cast<std::chrono::milliseconds>(d));
      },
      std::chrono::milliseconds(2));
  ASSERT_TRUE(reader.is_ok());
  std::thread finisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::ofstream(TailingLocalFileClient::done_marker(path)).put('\n');
  });
  Bytes buffer(8);
  ASSERT_TRUE((*reader)->read({buffer.data(), 8}).is_ok());  // "x"
  auto n = (*reader)->read({buffer.data(), 8});              // waits, EOF
  finisher.join();
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_GT(polls.load(), 0);
}

}  // namespace
}  // namespace griddles::core
