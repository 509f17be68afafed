// Unit tests for src/common: Status/Result, strings, config, clocks,
// bounded queue, temp dirs, log-level parsing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/config.h"
#include "src/common/logging.h"
#include "src/common/queue.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/tempfile.h"

namespace griddles {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status status = not_found("missing thing");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.to_string(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EveryConstructorMapsToItsCode) {
  EXPECT_EQ(invalid_argument("x").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(already_exists("x").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(permission_denied("x").code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(unavailable("x").code(), ErrorCode::kUnavailable);
  EXPECT_EQ(timeout_error("x").code(), ErrorCode::kTimeout);
  EXPECT_EQ(closed_error("x").code(), ErrorCode::kClosed);
  EXPECT_EQ(io_error("x").code(), ErrorCode::kIoError);
  EXPECT_EQ(out_of_range("x").code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(resource_exhausted("x").code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(failed_precondition("x").code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(aborted_error("x").code(), ErrorCode::kAborted);
  EXPECT_EQ(unimplemented("x").code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(internal_error("x").code(), ErrorCode::kInternal);
}

Result<int> half(int v) {
  if (v % 2 != 0) return invalid_argument("odd");
  return v / 2;
}

Result<int> quarter(int v) {
  GL_ASSIGN_OR_RETURN(const int h, half(v));
  return half(h);
}

TEST(ResultTest, ValueAndError) {
  auto ok = half(4);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(*ok, 2);
  auto err = half(3);
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*quarter(8), 2);
  EXPECT_FALSE(quarter(6).is_ok());  // 6/2 = 3 is odd
}

TEST(StringsTest, SplitPreservesEmptyTokens) {
  const auto parts = strings::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(strings::trim("  x y\t\n"), "x y");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("   "), "");
}

TEST(StringsTest, Cat) {
  EXPECT_EQ(strings::cat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(strings::cat(), "");
}

TEST(StringsTest, GlobMatch) {
  EXPECT_TRUE(strings::glob_match("*", "anything"));
  EXPECT_TRUE(strings::glob_match("JOB.*", "JOB.SF"));
  EXPECT_FALSE(strings::glob_match("JOB.*", "RESULT.DAT"));
  EXPECT_TRUE(strings::glob_match("/work/*/JOB.?F", "/work/x/JOB.SF"));
  EXPECT_FALSE(strings::glob_match("/work/*/JOB.?F", "/work/x/JOB.SSF"));
  EXPECT_TRUE(strings::glob_match("a*b*c", "axxbyyc"));
  EXPECT_FALSE(strings::glob_match("a*b*c", "axxbyy"));
  EXPECT_TRUE(strings::glob_match("", ""));
  EXPECT_FALSE(strings::glob_match("", "x"));
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(strings::parse_int("42").value(), 42);
  EXPECT_EQ(strings::parse_int(" -7 ").value(), -7);
  EXPECT_FALSE(strings::parse_int("4x").has_value());
  EXPECT_FALSE(strings::parse_int("").has_value());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(strings::parse_double("2.5").value(), 2.5);
  EXPECT_FALSE(strings::parse_double("2.5.1").has_value());
}

TEST(StringsTest, ParseBool) {
  EXPECT_TRUE(strings::parse_bool("true").value());
  EXPECT_TRUE(strings::parse_bool("Yes").value());
  EXPECT_FALSE(strings::parse_bool("off").value());
  EXPECT_FALSE(strings::parse_bool("maybe").has_value());
}

TEST(StringsTest, FormatHms) {
  EXPECT_EQ(strings::format_hms(0), "00:00:00");
  EXPECT_EQ(strings::format_hms(3661), "01:01:01");
  EXPECT_EQ(strings::format_ms(5957), "99:17");
}

TEST(ConfigTest, ParsesSectionsAndTypes) {
  auto config = Config::parse(R"(
top = 1
[machine]
name = dione   ; the melbourne P4
speed = 1.65
fast = yes
# comment
[mapping:a]
path = /x/y
)");
  ASSERT_TRUE(config.is_ok());
  EXPECT_EQ(config->get_int("top").value(), 1);
  EXPECT_EQ(config->get("machine.name").value(), "dione");
  EXPECT_DOUBLE_EQ(config->get_double("machine.speed").value(), 1.65);
  EXPECT_TRUE(config->get_bool("machine.fast").value());
  EXPECT_EQ(config->get("mapping:a.path").value(), "/x/y");
  EXPECT_FALSE(config->has("machine.missing"));
  EXPECT_EQ(config->get_or("machine.missing", "dflt"), "dflt");
  const auto sections = config->sections();
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0], "machine");
}

TEST(ConfigTest, RejectsMalformedLines) {
  EXPECT_FALSE(Config::parse("just a line").is_ok());
  EXPECT_FALSE(Config::parse("[unclosed").is_ok());
  EXPECT_FALSE(Config::parse("= value").is_ok());
}

TEST(ConfigTest, TypeErrors) {
  auto config = Config::parse("x = notanumber");
  ASSERT_TRUE(config.is_ok());
  EXPECT_FALSE(config->get_int("x").is_ok());
  EXPECT_FALSE(config->get_bool("x").is_ok());
  EXPECT_EQ(config->get_int_or("x", 9), 9);
}

TEST(ClockTest, RealClockAdvances) {
  RealClock clock;
  const Duration a = clock.now();
  clock.sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(clock.now() - a, std::chrono::milliseconds(4));
}

TEST(ClockTest, ScaledClockCompressesTime) {
  // 1 model second passes in 10 wall milliseconds.
  ScaledClock clock(0.01);
  const auto wall_start = WallClock::now();
  clock.sleep_for(std::chrono::seconds(1));
  const auto wall_elapsed = WallClock::now() - wall_start;
  EXPECT_GE(wall_elapsed, std::chrono::milliseconds(9));
  EXPECT_LT(wall_elapsed, std::chrono::milliseconds(200));
  EXPECT_GE(clock.now(), std::chrono::milliseconds(900));
}

TEST(ClockTest, ManualClockReleasesSleepers) {
  ManualClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.sleep_for(std::chrono::seconds(5));
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke);
  clock.advance(std::chrono::seconds(5));
  sleeper.join();
  EXPECT_TRUE(woke);
  EXPECT_EQ(clock.now(), Duration(std::chrono::seconds(5)));
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue;
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 2);
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> queue;
  queue.push(7);
  queue.close();
  EXPECT_FALSE(queue.push(8));
  EXPECT_EQ(queue.pop().value(), 7);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueueTest, CapacityBlocksProducer) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_TRUE(queue.try_push(3));
}

TEST(BoundedQueueTest, BlockedPushReleasedByPop) {
  BoundedQueue<int> queue(1);
  queue.push(1);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    queue.push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed);
  EXPECT_EQ(queue.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed);
}

TEST(BoundedQueueTest, PopUntilTimesOut) {
  BoundedQueue<int> queue;
  const auto deadline = WallClock::now() + std::chrono::milliseconds(30);
  EXPECT_FALSE(queue.pop_until(deadline).has_value());
}

TEST(BoundedQueueTest, ManyProducersManyConsumers) {
  BoundedQueue<int> queue(16);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<long long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) queue.push(p * kPerProducer + i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = queue.pop()) sum += *v;
    });
  }
  for (auto& t : threads) t.join();
  queue.close();
  for (auto& t : consumers) t.join();
  const long long n = kPerProducer * kProducers;
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(TempDirTest, CreatesAndCleansUp) {
  std::filesystem::path kept;
  {
    auto dir = TempDir::create("gl-test");
    ASSERT_TRUE(dir.is_ok());
    kept = dir->path();
    EXPECT_TRUE(std::filesystem::exists(kept));
    std::ofstream(dir->file("x.txt")) << "hello";
    EXPECT_TRUE(std::filesystem::exists(dir->file("x.txt")));
  }
  EXPECT_FALSE(std::filesystem::exists(kept));
}

TEST(TempDirTest, MoveTransfersOwnership) {
  auto dir = TempDir::create("gl-move");
  ASSERT_TRUE(dir.is_ok());
  const std::filesystem::path path = dir->path();
  TempDir moved = std::move(*dir);
  EXPECT_EQ(moved.path(), path);
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(BytesTest, Fnv1aIsStable) {
  EXPECT_EQ(fnv1a(as_bytes_view("")), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a(as_bytes_view("a")), fnv1a(as_bytes_view("b")));
  EXPECT_EQ(to_string(to_bytes("round trip")), "round trip");
}

TEST(LoggingTest, ParseLevelMapsEveryName) {
  EXPECT_EQ(log::parse_level("trace"), log::Level::kTrace);
  EXPECT_EQ(log::parse_level("debug"), log::Level::kDebug);
  EXPECT_EQ(log::parse_level("info"), log::Level::kInfo);
  EXPECT_EQ(log::parse_level("warn"), log::Level::kWarn);
  EXPECT_EQ(log::parse_level("error"), log::Level::kError);
  EXPECT_EQ(log::parse_level("off"), log::Level::kOff);
}

TEST(LoggingTest, ParseLevelDefaultsUnknownToWarn) {
  EXPECT_EQ(log::parse_level(""), log::Level::kWarn);
  EXPECT_EQ(log::parse_level("verbose"), log::Level::kWarn);
  EXPECT_EQ(log::parse_level("DEBUG"), log::Level::kWarn);  // case matters
  EXPECT_EQ(log::parse_level("warning"), log::Level::kWarn);
}

TEST(BufferTest, SlicesShareAndClamp) {
  const Buffer whole(to_bytes("griddles"));
  const Buffer mid = whole.slice(2, 3);
  EXPECT_EQ(to_string(mid), "idd");
  EXPECT_EQ(mid.data(), whole.data() + 2);
  EXPECT_EQ(to_string(whole.slice(6, 100)), "es");
  EXPECT_TRUE(whole.slice(100, 5).empty());
}

TEST(BufferTest, CompactCopiesOnlySmallSlices) {
  const Buffer whole(Bytes(4096, std::byte{7}));
  const Buffer most = whole.slice(0, 4000);
  EXPECT_EQ(most.compact().data(), most.data());  // shared
  const Buffer small = whole.slice(100, 10);
  const Buffer kept = small.compact();
  EXPECT_NE(kept.data(), small.data());  // copied, so `whole` can go
  EXPECT_EQ(kept, small);
}

TEST(BufferTest, GrowFrontWritesInPlaceOnlyForTheSoleOwner) {
  MutableByteSpan out;
  Buffer body = Buffer::uninitialized(4, out);
  std::copy_n(to_bytes("body").begin(), 4, out.begin());
  const std::byte* at = body.data();
  MutableByteSpan head;
  Buffer grown = std::move(body).grow_front(2, head);
  EXPECT_TRUE(body.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(grown.data() + 2, at);  // the head went into the headroom
  head[0] = std::byte{'h'};
  head[1] = std::byte{'d'};
  EXPECT_EQ(to_string(grown), "hdbody");

  const Buffer shared = grown;  // a second reference: copy instead
  Buffer regrown = Buffer(grown).grow_front(1, head);
  head[0] = std::byte{'>'};
  EXPECT_EQ(to_string(regrown), ">hdbody");
  EXPECT_EQ(to_string(shared), "hdbody");
}

TEST(BufferTest, ConversionsCopyOrAdopt) {
  Bytes bytes = to_bytes("adopt");
  const std::byte* storage = bytes.data();
  const Buffer adopted(std::move(bytes));
  EXPECT_EQ(adopted.data(), storage);
  const Bytes source = to_bytes("copy");
  const Buffer copied(source);
  EXPECT_NE(copied.data(), source.data());
  EXPECT_EQ(copied, Buffer(to_bytes("copy")));
  Buffer filled;
  filled.assign(3, std::byte{'z'});
  EXPECT_EQ(to_string(filled), "zzz");
}

TEST(ResultTest, ConvertsBetweenValueTypes) {
  const Result<Buffer> ok = Result<Bytes>(to_bytes("v"));
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(to_string(*ok), "v");
  const Result<Buffer> err = Result<Bytes>(not_found("gone"));
  EXPECT_EQ(err.status().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace griddles
