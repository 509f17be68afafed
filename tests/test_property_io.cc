// Property tests of FileClient mode transparency: a random sequence of
// read/write/seek operations must behave identically on a local file, a
// remote-proxy file, and a staged file — all compared against a simple
// in-memory reference model. This is the invariant that lets the FM
// remap files without the application noticing.
#include <gtest/gtest.h>

#include <random>

#include "src/common/tempfile.h"
#include "src/core/staged_client.h"
#include "src/net/inproc.h"
#include "src/remote/file_server.h"
#include "src/remote/remote_client.h"
#include "src/vfs/local_client.h"

namespace griddles {
namespace {

/// The oracle: a byte vector with a cursor.
class ReferenceFile {
 public:
  std::size_t read(MutableByteSpan out) {
    const std::size_t n =
        cursor_ >= data_.size()
            ? 0
            : std::min(out.size(), data_.size() - cursor_);
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(cursor_), n,
                out.begin());
    cursor_ += n;
    return n;
  }

  std::size_t write(ByteSpan in) {
    if (cursor_ + in.size() > data_.size()) {
      data_.resize(cursor_ + in.size());
    }
    std::copy(in.begin(), in.end(),
              data_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    cursor_ += in.size();
    return in.size();
  }

  std::uint64_t seek(std::int64_t offset, vfs::Whence whence) {
    std::int64_t base = 0;
    if (whence == vfs::Whence::kCurrent) {
      base = static_cast<std::int64_t>(cursor_);
    } else if (whence == vfs::Whence::kEnd) {
      base = static_cast<std::int64_t>(data_.size());
    }
    cursor_ = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, base + offset));
    return cursor_;
  }

  std::uint64_t size() const { return data_.size(); }
  const Bytes& data() const { return data_; }

 private:
  Bytes data_;
  std::uint64_t cursor_ = 0;
};

/// Applies an identical random op stream to the client and the oracle,
/// asserting equivalence after every step.
void run_random_ops(vfs::FileClient& client, unsigned seed, int ops) {
  ReferenceFile reference;
  std::mt19937 rng(seed);
  for (int op = 0; op < ops; ++op) {
    switch (rng() % 4) {
      case 0: {  // write a random chunk
        Bytes chunk(1 + rng() % 3000);
        for (std::byte& b : chunk) b = static_cast<std::byte>(rng());
        auto put = client.write(chunk);
        ASSERT_TRUE(put.is_ok()) << op << ": " << put.status();
        ASSERT_EQ(*put, reference.write(chunk)) << "op " << op;
        break;
      }
      case 1: {  // read a random chunk
        Bytes theirs(1 + rng() % 3000);
        Bytes ours(theirs.size());
        auto got = client.read({theirs.data(), theirs.size()});
        ASSERT_TRUE(got.is_ok()) << op << ": " << got.status();
        const std::size_t expected =
            reference.read({ours.data(), ours.size()});
        ASSERT_EQ(*got, expected) << "op " << op;
        ASSERT_TRUE(std::equal(ours.begin(),
                               ours.begin() +
                                   static_cast<std::ptrdiff_t>(expected),
                               theirs.begin()))
            << "op " << op;
        break;
      }
      case 2: {  // seek somewhere valid
        const vfs::Whence whence =
            static_cast<vfs::Whence>(rng() % 3);
        std::int64_t offset = 0;
        if (whence == vfs::Whence::kSet) {
          offset = static_cast<std::int64_t>(
              rng() % (reference.size() + 100));
        } else if (whence == vfs::Whence::kEnd) {
          offset = -static_cast<std::int64_t>(
              reference.size() == 0 ? 0 : rng() % reference.size());
        } else {
          offset = static_cast<std::int64_t>(rng() % 100) - 50;
          // Keep kCurrent seeks non-negative overall.
          if (static_cast<std::int64_t>(client.tell()) + offset < 0) {
            offset = 0;
          }
        }
        auto pos = client.seek(offset, whence);
        ASSERT_TRUE(pos.is_ok()) << op << ": " << pos.status();
        ASSERT_EQ(*pos, reference.seek(offset, whence)) << "op " << op;
        break;
      }
      default: {  // size + tell agreement
        auto size = client.size();
        ASSERT_TRUE(size.is_ok());
        ASSERT_EQ(*size, reference.size()) << "op " << op;
        ASSERT_EQ(client.tell(), reference.seek(0, vfs::Whence::kCurrent))
            << "op " << op;
        break;
      }
    }
  }
  // Final byte-for-byte check.
  auto end = client.seek(0, vfs::Whence::kSet);
  ASSERT_TRUE(end.is_ok());
  auto all = vfs::read_all(client);
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(*all, reference.data());
}

TEST(IoPropertyTest, LocalClientMatchesReference) {
  for (unsigned seed = 1; seed <= 6; ++seed) {
    auto dir = TempDir::create("prop-local");
    vfs::OpenFlags flags = vfs::OpenFlags::update();
    flags.create = true;
    auto client = vfs::LocalFileClient::open(dir->file("f.bin").string(),
                                             flags);
    ASSERT_TRUE(client.is_ok()) << client.status();
    run_random_ops(**client, seed, 120);
  }
}

TEST(IoPropertyTest, RemoteProxyMatchesReference) {
  auto dir = TempDir::create("prop-remote");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("freak");
  remote::FileServer server(dir->file("export"), *server_transport,
                            net::inproc_endpoint("freak", "fs"));
  ASSERT_TRUE(server.start().is_ok());
  auto transport = network.transport("jagan");
  for (unsigned seed = 1; seed <= 6; ++seed) {
    vfs::OpenFlags flags = vfs::OpenFlags::update();
    flags.create = true;
    flags.truncate = true;
    remote::RemoteFileClient::Options options;
    options.block_size = 1 << (8 + seed % 4);  // vary cache granularity
    options.cache_blocks = 4 + seed;
    auto client = remote::RemoteFileClient::open(
        *transport, server.endpoint(),
        "prop-" + std::to_string(seed) + ".bin", flags, options);
    ASSERT_TRUE(client.is_ok()) << client.status();
    run_random_ops(**client, seed, 120);
    ASSERT_TRUE((*client)->close().is_ok());
  }
  server.stop();
}

/// Every fopen-style open mode behaves on a proxy file as on a local
/// file: the same opens fail with the same code, and the same reads and
/// writes from the same starting contents return and leave the same
/// bytes. There are no seeks, so an append open's O_APPEND and the proxy
/// client's cursor at the end agree.
TEST(IoPropertyTest, RemoteProxyOpenFlagsMatchLocalClient) {
  auto dir = TempDir::create("prop-flags");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("freak");
  remote::FileServer server(dir->file("export"), *server_transport,
                            net::inproc_endpoint("freak", "fs"));
  ASSERT_TRUE(server.start().is_ok());
  auto transport = network.transport("jagan");
  struct Case {
    std::string name;
    vfs::OpenFlags flags;
    bool exists;
  };
  const Case cases[] = {
      {"output", vfs::OpenFlags::output(), true},
      {"update", vfs::OpenFlags::update(), true},
      {"append", vfs::OpenFlags::appending(), true},
      {"append-new", vfs::OpenFlags::appending(), false},
      {"missing/dir/output", vfs::OpenFlags::output(), false},
      {"update-missing", vfs::OpenFlags::update(), false},
      {"truncate", {.read = true, .write = true, .truncate = true}, true},
      {"truncate-missing", {.write = true, .truncate = true}, false},
      {"input-missing", vfs::OpenFlags::input(), false},
  };
  unsigned seed = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::mt19937 rng(++seed);
    const std::string local_path = dir->file("local/" + c.name).string();
    const std::string remote_path = (server.root() / c.name).string();
    if (c.exists) {
      Bytes initial(1000 + rng() % 5000);
      for (std::byte& b : initial) b = static_cast<std::byte>(rng());
      ASSERT_TRUE(vfs::write_file(local_path, initial).is_ok());
      ASSERT_TRUE(vfs::write_file(remote_path, initial).is_ok());
    }
    auto local = vfs::LocalFileClient::open(local_path, c.flags);
    remote::RemoteFileClient::Options options;
    options.block_size = 512;
    auto proxy = remote::RemoteFileClient::open(
        *transport, server.endpoint(), c.name, c.flags, options);
    ASSERT_EQ(proxy.is_ok(), local.is_ok()) << proxy.status();
    if (!local.is_ok()) {
      EXPECT_EQ(proxy.status().code(), local.status().code());
      continue;
    }
    for (int op = 0; op < 60; ++op) {
      if (c.flags.read && rng() % 2 == 0) {
        Bytes ours(1 + rng() % 2000);
        Bytes theirs(ours.size());
        auto want = (*local)->read({ours.data(), ours.size()});
        auto got = (*proxy)->read({theirs.data(), theirs.size()});
        ASSERT_TRUE(want.is_ok() && got.is_ok()) << op << ": "
                                                 << got.status();
        ASSERT_EQ(*got, *want) << "op " << op;
        ASSERT_TRUE(std::equal(ours.begin(),
                               ours.begin() +
                                   static_cast<std::ptrdiff_t>(*want),
                               theirs.begin()))
            << "op " << op;
      } else {
        Bytes chunk(1 + rng() % 2000);
        for (std::byte& b : chunk) b = static_cast<std::byte>(rng());
        ASSERT_TRUE((*local)->write(chunk).is_ok());
        auto put = (*proxy)->write(chunk);
        ASSERT_TRUE(put.is_ok()) << op << ": " << put.status();
        ASSERT_EQ(*put, chunk.size()) << "op " << op;
      }
      ASSERT_EQ((*proxy)->size().value(), (*local)->size().value())
          << "op " << op;
    }
    ASSERT_TRUE((*local)->close().is_ok());
    ASSERT_TRUE((*proxy)->close().is_ok());
    EXPECT_EQ(vfs::read_file(remote_path).value(),
              vfs::read_file(local_path).value());
  }
  server.stop();
}

TEST(IoPropertyTest, StagedClientMatchesReference) {
  auto dir = TempDir::create("prop-staged");
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("freak");
  remote::FileServer server(dir->file("export"), *server_transport,
                            net::inproc_endpoint("freak", "fs"));
  ASSERT_TRUE(server.start().is_ok());
  auto transport = network.transport("jagan");
  for (unsigned seed = 1; seed <= 4; ++seed) {
    vfs::OpenFlags flags = vfs::OpenFlags::update();
    flags.create = true;
    flags.truncate = true;
    auto client = core::StagedFileClient::open(
        *transport, clock, server.endpoint(),
        "staged-" + std::to_string(seed) + ".bin",
        dir->file("stage-" + std::to_string(seed)).string(), flags);
    ASSERT_TRUE(client.is_ok()) << client.status();
    run_random_ops(**client, seed, 120);
    ASSERT_TRUE((*client)->close().is_ok());
    // After close, the staged copy must have been pushed back whole.
    auto remote_copy = vfs::read_file(
        (server.root() / ("staged-" + std::to_string(seed) + ".bin"))
            .string());
    ASSERT_TRUE(remote_copy.is_ok());
  }
  server.stop();
}

}  // namespace
}  // namespace griddles
