// Concurrency stress/regression tests, sized to stay fast enough to run
// under ThreadSanitizer (tools/check.sh thread). They hammer the two
// shared-state hot spots: BoundedQueue (the transport/writer spine) and
// the Grid Buffer Channel, including seek-backwards re-reads through the
// cache file while other readers are still streaming forward (§5.3).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "src/common/queue.h"
#include "src/common/tempfile.h"
#include "src/gridbuffer/channel.h"

namespace griddles {
namespace {

TEST(QueueStressTest, ManyProducersManyConsumersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  BoundedQueue<std::uint64_t> queue(/*capacity=*/8);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(
            static_cast<std::uint64_t>(p) * kPerProducer + i));
      }
    });
  }

  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> popped{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.pop()) {
        sum.fetch_add(*item);
        popped.fetch_add(1);
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);  // each value delivered once
  EXPECT_EQ(queue.size(), 0u);
}

TEST(QueueStressTest, CloseWhileBlockedWakesEveryone) {
  BoundedQueue<int> queue(/*capacity=*/1);
  ASSERT_TRUE(queue.push(0));  // consumers start with one item, then block

  std::vector<std::thread> waiters;
  std::atomic<int> woke{0};
  for (int i = 0; i < 8; ++i) {
    waiters.emplace_back([&] {
      while (queue.pop()) {
      }
      woke.fetch_add(1);
    });
  }
  // Blocked pushers as well (capacity 1, already full after the re-push).
  std::vector<std::thread> pushers;
  for (int i = 0; i < 4; ++i) {
    pushers.emplace_back([&] {
      while (queue.push(1)) {
      }
      woke.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  for (auto& t : waiters) t.join();
  for (auto& t : pushers) t.join();
  EXPECT_EQ(woke.load(), 12);
}

class ChannelStressTest : public ::testing::Test {
 protected:
  ChannelStressTest() : dir_(*TempDir::create("gbuf-stress")) {}
  TempDir dir_;
};

TEST_F(ChannelStressTest, ConcurrentReadersWithBackwardSeeksThroughCache) {
  constexpr std::uint32_t kBlock = 512;
  constexpr std::uint64_t kBlocks = 256;
  constexpr std::uint64_t kTotal = kBlock * kBlocks;
  constexpr int kReaders = 4;

  gridbuffer::ChannelConfig config;
  config.block_size = kBlock;
  config.cache_enabled = true;
  config.expected_readers = kReaders;
  // Tiny table: forces spills to the cache file mid-stream, so forward
  // readers and re-readers exercise both the table and the cache paths.
  config.max_buffered_bytes = 8 * kBlock;
  auto channel = std::make_shared<gridbuffer::Channel>(
      "stress", config, dir_.file("stress.cache").string());

  auto expected_byte = [](std::uint64_t offset) {
    return static_cast<std::byte>((offset * 31 + 7) & 0xFF);
  };

  std::vector<std::uint64_t> reader_ids;
  for (int r = 0; r < kReaders; ++r) {
    reader_ids.push_back(channel->add_reader());
  }

  std::thread writer([&] {
    Bytes block(kBlock);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      const std::uint64_t base = b * kBlock;
      for (std::uint32_t i = 0; i < kBlock; ++i) {
        block[i] = expected_byte(base + i);
      }
      ASSERT_TRUE(channel->write(base, block).is_ok());
    }
    channel->close_writer();
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const std::uint64_t id = reader_ids[static_cast<std::size_t>(r)];
      std::uint64_t offset = 0;
      std::uint64_t verified = 0;
      while (true) {
        auto result = channel->read(id, offset, kBlock, /*deadline_ms=*/0);
        ASSERT_TRUE(result.is_ok()) << result.status();
        for (std::size_t i = 0; i < result->data.size(); ++i) {
          ASSERT_EQ(result->data[i], expected_byte(offset + i));
        }
        verified += result->data.size();
        offset += result->data.size();
        if (result->eof) break;
        // Periodic seek backwards: re-read an already-consumed region
        // (served from the cache file once evicted from the table). Each
        // reader jumps back at a different cadence to desynchronize them.
        if (offset >= 16 * kBlock && (offset / kBlock) % (3 + r) == 0) {
          const std::uint64_t back = offset - 16 * kBlock;
          auto reread = channel->read(id, back, kBlock, /*deadline_ms=*/0);
          ASSERT_TRUE(reread.is_ok()) << reread.status();
          ASSERT_FALSE(reread->data.empty());
          for (std::size_t i = 0; i < reread->data.size(); ++i) {
            ASSERT_EQ(reread->data[i], expected_byte(back + i));
          }
        }
      }
      EXPECT_EQ(verified, kTotal);
      channel->remove_reader(id);
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  // Every reader consumed everything: the table must have fully drained.
  EXPECT_EQ(channel->buffered_bytes(), 0u);
}

TEST_F(ChannelStressTest, ConcurrentWritersAndSeekingReadersAcrossSpills) {
  // Writers write the cache file without the channel lock while readers
  // read spilled extents without it: every byte must still match.
  constexpr std::uint32_t kBlock = 512;
  constexpr std::uint64_t kRunBlocks = 4;
  constexpr std::uint64_t kRuns = 64;
  constexpr std::uint64_t kTotal = kBlock * kRunBlocks * kRuns;
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;

  gridbuffer::ChannelConfig config;
  config.block_size = kBlock;
  config.expected_readers = kReaders;
  config.max_buffered_bytes = 8 * kBlock;  // spills mid-stream
  auto channel = std::make_shared<gridbuffer::Channel>(
      "writers", config, dir_.file("writers.cache").string());

  auto expected_byte = [](std::uint64_t offset) {
    return static_cast<std::byte>((offset * 13 + offset / 251) & 0xFF);
  };
  std::vector<std::uint64_t> reader_ids;
  for (int r = 0; r < kReaders; ++r) {
    reader_ids.push_back(channel->add_reader());
  }

  // Writer w sends runs w, w + kWriters, ...: disjoint, out of order.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Bytes run(kBlock * kRunBlocks);
      for (std::uint64_t r = static_cast<std::uint64_t>(w); r < kRuns;
           r += kWriters) {
        const std::uint64_t base = r * run.size();
        for (std::size_t i = 0; i < run.size(); ++i) {
          run[i] = expected_byte(base + i);
        }
        ASSERT_TRUE(channel->write(base, run).is_ok());
      }
    });
  }
  std::thread closer([&] {
    for (auto& t : writers) t.join();
    channel->close_writer();
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const std::uint64_t id = reader_ids[static_cast<std::size_t>(r)];
      std::uint64_t offset = 0;
      while (true) {
        auto result = channel->read(id, offset, 3 * kBlock, 0);
        ASSERT_TRUE(result.is_ok()) << result.status();
        for (std::size_t i = 0; i < result->data.size(); ++i) {
          ASSERT_EQ(result->data[i], expected_byte(offset + i));
        }
        offset += result->data.size();
        if (result->eof) break;
        // Seek back across spilled blocks and re-read a long extent.
        if (offset >= 24 * kBlock && (offset / kBlock) % (5 + r) == 0) {
          const std::uint64_t back = offset - 24 * kBlock;
          auto reread = channel->read(id, back, 16 * kBlock, 0);
          ASSERT_TRUE(reread.is_ok()) << reread.status();
          ASSERT_FALSE(reread->data.empty());
          for (std::size_t i = 0; i < reread->data.size(); ++i) {
            ASSERT_EQ(reread->data[i], expected_byte(back + i));
          }
        }
      }
      EXPECT_EQ(offset, kTotal);
      channel->remove_reader(id);
    });
  }

  closer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(channel->buffered_bytes(), 0u);
}

TEST_F(ChannelStressTest, RemoveReaderRacingBlockedReadErrorsCleanly) {
  gridbuffer::ChannelConfig config;
  config.block_size = 64;
  config.expected_readers = 1;
  auto channel = std::make_shared<gridbuffer::Channel>(
      "race", config, dir_.file("race.cache").string());
  const std::uint64_t id = channel->add_reader();

  // Reader blocks at the frontier; remove_reader must not be resurrected
  // by the pending read (the old operator[] lookup recreated it).
  std::thread reader([&] {
    auto result = channel->read(id, 0, 64, /*deadline_ms=*/0);
    if (result.is_ok()) {
      EXPECT_TRUE(result->eof || !result->data.empty());
    } else {
      EXPECT_EQ(result.status().code(), ErrorCode::kNotFound)
          << result.status();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel->remove_reader(id);
  channel->close_writer();  // wakes the blocked read
  reader.join();

  auto after = channel->read(id, 0, 64, /*deadline_ms=*/0);
  ASSERT_FALSE(after.is_ok());
  EXPECT_EQ(after.status().code(), ErrorCode::kNotFound);
}

TEST_F(ChannelStressTest, WriterBackpressureWithSlowConsumerNoCache) {
  gridbuffer::ChannelConfig config;
  config.block_size = 128;
  config.cache_enabled = false;
  config.expected_readers = 1;
  config.max_buffered_bytes = 4 * 128;  // writer must block on a slow reader
  auto channel = std::make_shared<gridbuffer::Channel>(
      "bp", config, dir_.file("bp.cache").string());
  const std::uint64_t id = channel->add_reader();

  constexpr std::uint64_t kBlocks = 64;
  std::thread writer([&] {
    Bytes block(128, std::byte{0x42});
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      ASSERT_TRUE(channel->write(b * 128, block).is_ok());
    }
    channel->close_writer();
  });

  std::uint64_t offset = 0;
  while (true) {
    auto result = channel->read(id, offset, 128, /*deadline_ms=*/0);
    ASSERT_TRUE(result.is_ok()) << result.status();
    offset += result->data.size();
    if (result->eof) break;
    std::this_thread::yield();
  }
  EXPECT_EQ(offset, kBlocks * 128);
  writer.join();
}

}  // namespace
}  // namespace griddles
