// Tests for the overload-robustness layer (DESIGN.md §14): ambient
// end-to-end deadlines, admission control and load shedding, retry
// budgets, the burst@rpc fault op, and Grid Buffer writer backpressure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/common/deadline.h"
#include "src/common/queue.h"
#include "src/common/tempfile.h"
#include "src/fault/plan.h"
#include "src/fault/retry.h"
#include "src/gridbuffer/channel.h"
#include "src/net/admission.h"
#include "src/net/inproc.h"
#include "src/net/rpc.h"
#include "src/net/soap.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace griddles {
namespace {

using std::chrono::milliseconds;

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// ---------------------------------------------------------------------------
// Ambient deadlines (src/common/deadline.h).

TEST(ScopedDeadlineTest, MinsWithEnclosingAndRestores) {
  EXPECT_FALSE(current_deadline().has_value());
  const WallClock::time_point anchor = WallClock::now();
  {
    ScopedDeadline outer(anchor + std::chrono::seconds(1));
    ASSERT_TRUE(current_deadline().has_value());
    EXPECT_EQ(*current_deadline(), anchor + std::chrono::seconds(1));
    {
      // A wider inner deadline cannot extend the enclosing budget.
      ScopedDeadline wider(anchor + std::chrono::seconds(5));
      EXPECT_EQ(*current_deadline(), anchor + std::chrono::seconds(1));
    }
    {
      // A narrower one shrinks it for its scope only.
      ScopedDeadline narrower(anchor + milliseconds(100));
      EXPECT_EQ(*current_deadline(), anchor + milliseconds(100));
    }
    {
      // nullopt leaves the context untouched.
      ScopedDeadline unchanged(std::optional<WallClock::time_point>{});
      EXPECT_EQ(*current_deadline(), anchor + std::chrono::seconds(1));
    }
    EXPECT_EQ(*current_deadline(), anchor + std::chrono::seconds(1));
  }
  EXPECT_FALSE(current_deadline().has_value());
}

TEST(ScopedDeadlineTest, ExpiryAndCheck) {
  EXPECT_FALSE(deadline_expired());
  EXPECT_TRUE(check_deadline("noop").is_ok());
  EXPECT_FALSE(remaining_budget().has_value());

  ScopedDeadline expired(WallClock::now() - milliseconds(1));
  EXPECT_TRUE(deadline_expired());
  ASSERT_TRUE(remaining_budget().has_value());
  EXPECT_LT(*remaining_budget(), Duration::zero());
  const Status status = check_deadline("the-op");
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("the-op"), std::string::npos);
}

// ---------------------------------------------------------------------------
// BoundedQueue::push_until (deadline and close races).

TEST(BoundedQueueTest, PushUntilGivesUpAtDeadlineLeavingQueueIntact) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.push_until(
      2, std::chrono::steady_clock::now() + milliseconds(40)));
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(35));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.pop().value(), 1);  // the timed-out item never landed
  EXPECT_FALSE(queue.pop_until(std::chrono::steady_clock::now()).has_value());
}

TEST(BoundedQueueTest, PushUntilObservesCloseWhileWaiting) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));
  std::thread closer([&] {
    std::this_thread::sleep_for(milliseconds(20));
    queue.close();
  });
  // Far deadline: the close, not the timeout, must end the wait.
  EXPECT_FALSE(queue.push_until(
      2, std::chrono::steady_clock::now() + std::chrono::seconds(30)));
  closer.join();
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueueTest, PushUntilSucceedsWhenSpaceFreesBeforeDeadline) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));
  std::thread drainer([&] {
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_EQ(queue.pop().value(), 1);
  });
  EXPECT_TRUE(queue.push_until(
      2, std::chrono::steady_clock::now() + std::chrono::seconds(30)));
  drainer.join();
  EXPECT_EQ(queue.pop().value(), 2);
}

// ---------------------------------------------------------------------------
// Budget propagation on the wire.

TEST(RpcFrameDeadlineTest, BinaryAndSoapRoundTripDeadline) {
  net::RpcFrame frame;
  frame.kind = net::FrameKind::kRequest;
  frame.id = 7;
  frame.method = 3;
  frame.deadline_us = 123456789;
  frame.payload = to_bytes("req");
  for (const auto format :
       {net::WireFormat::kBinary, net::WireFormat::kSoap}) {
    auto decoded =
        net::decode_frame(net::encode_frame(frame, format), format);
    ASSERT_TRUE(decoded.is_ok()) << decoded.status();
    EXPECT_EQ(decoded->deadline_us, 123456789u);
  }
  // deadline_us = 0 ("no deadline") survives too.
  frame.deadline_us = 0;
  auto decoded = net::decode_frame(
      net::encode_frame(frame, net::WireFormat::kSoap),
      net::WireFormat::kSoap);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->deadline_us, 0u);
}

// ---------------------------------------------------------------------------
// AdmissionController (src/net/admission.h).

TEST(AdmissionTest, ShedsNewestWhenQueueFull) {
  net::AdmissionController::Options options;
  options.capacity = 1;
  options.max_queued = 0;
  net::AdmissionController admission("dione", options);

  const std::uint64_t shed_before = counter_value("overload.shed");
  auto first = admission.admit(1, 7);
  ASSERT_TRUE(first.is_ok()) << first.status();
  EXPECT_EQ(admission.in_flight(), 1u);

  auto second = admission.admit(1, 7);
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(counter_value("overload.shed"), shed_before + 1);

  first->release();
  EXPECT_EQ(admission.in_flight(), 0u);
  EXPECT_TRUE(admission.admit(1, 7).is_ok());
}

TEST(AdmissionTest, QueueWaitBoundedByAmbientDeadline) {
  net::AdmissionController::Options options;
  options.capacity = 1;
  options.max_queued = 8;
  net::AdmissionController admission("dione", options);
  auto held = admission.admit(1, 7);
  ASSERT_TRUE(held.is_ok());

  ScopedDeadline budget(WallClock::now() + milliseconds(50));
  const auto start = WallClock::now();
  auto queued = admission.admit(1, 7);
  ASSERT_FALSE(queued.is_ok());
  EXPECT_EQ(queued.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LT(WallClock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(admission.queued(), 0u);  // the waiter cleaned up after itself
}

TEST(AdmissionTest, ZeroCostAdmitsWithoutHoldingCapacity) {
  net::AdmissionController::Options options;
  options.capacity = 1;
  net::AdmissionController admission("dione", options);
  auto free_rider = admission.admit(0, 9);
  ASSERT_TRUE(free_rider.is_ok());
  EXPECT_EQ(admission.in_flight(), 0u);
  EXPECT_TRUE(admission.admit(1, 7).is_ok());  // capacity still available
}

TEST(AdmissionTest, CloseUnblocksQueuedWaiters) {
  net::AdmissionController::Options options;
  options.capacity = 1;
  options.max_queued = 8;
  net::AdmissionController admission("dione", options);
  auto held = admission.admit(1, 7);
  ASSERT_TRUE(held.is_ok());

  std::thread closer([&] {
    std::this_thread::sleep_for(milliseconds(20));
    admission.close();
  });
  auto queued = admission.admit(1, 7);
  ASSERT_FALSE(queued.is_ok());
  EXPECT_EQ(queued.status().code(), ErrorCode::kUnavailable);
  closer.join();
}

TEST(AdmissionTest, BurstRuleInflatesAccountedCost) {
  net::AdmissionController::Options options;
  options.capacity = 4;
  options.max_queued = 0;
  net::AdmissionController admission("dione", options);

  // Without a burst rule a unit-cost admit fits comfortably.
  {
    auto permit = admission.admit(1, 7);
    ASSERT_TRUE(permit.is_ok());
  }

  // An armed burst rule makes the same request account 8 units — over
  // capacity, so it sheds with no real extra traffic.
  auto plan = *fault::Plan::parse("burst@rpc:di*:factor=8");
  fault::arm(plan, nullptr);
  auto shed = admission.admit(1, 7);
  fault::disarm();
  ASSERT_FALSE(shed.is_ok());
  EXPECT_EQ(shed.status().code(), ErrorCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// burst@rpc fault grammar (src/fault/plan.h).

TEST(BurstPlanTest, ParsesToAdmissionSiteWithFactor) {
  auto plan = fault::Plan::parse("burst@rpc:dione:factor=6");
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  ASSERT_EQ((*plan)->rules().size(), 1u);
  const fault::Rule& rule = (*plan)->rules()[0];
  EXPECT_EQ(rule.op, fault::Op::kBurst);
  // `@rpc` in the grammar, but remapped so client-call consults
  // (Site::kRpc) never see burst state.
  EXPECT_EQ(rule.site, fault::Site::kAdmission);
  EXPECT_DOUBLE_EQ(rule.burst_factor, 6.0);

  const fault::Decision hit =
      (*plan)->consult(fault::Site::kAdmission, "dione");
  EXPECT_EQ(hit.action, fault::Decision::Action::kBurst);
  EXPECT_DOUBLE_EQ(hit.factor, 6.0);
  const fault::Decision miss = (*plan)->consult(fault::Site::kRpc, "dione");
  EXPECT_EQ(miss.action, fault::Decision::Action::kNone);
}

TEST(BurstPlanTest, RejectsNonRpcSites) {
  EXPECT_FALSE(fault::Plan::parse("burst@copy:*").is_ok());
  EXPECT_FALSE(fault::Plan::parse("burst@gns:*").is_ok());
}

// ---------------------------------------------------------------------------
// Retry discipline: shed responses are not retried, budgets bound storms.

TEST(RetryPolicyTest, ShedAndExpiredResponsesAreNotRetryable) {
  EXPECT_TRUE(fault::RetryPolicy::retryable(ErrorCode::kUnavailable));
  EXPECT_TRUE(fault::RetryPolicy::retryable(ErrorCode::kTimeout));
  // A shed response means the server is overloaded right now; retrying
  // it is the storm the budget exists to prevent.
  EXPECT_FALSE(fault::RetryPolicy::retryable(ErrorCode::kResourceExhausted));
  EXPECT_FALSE(fault::RetryPolicy::retryable(ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(fault::RetryPolicy::retryable(ErrorCode::kDataLoss));
}

TEST(RetryBudgetTest, TokensSpendOnRetryAndEarnOnFreshTraffic) {
  fault::RetryBudget::Options options;
  options.earn_per_fresh = 0.5;
  options.burst = 2.0;
  fault::RetryBudget budget(options);
  const std::uint64_t key = 42;

  EXPECT_DOUBLE_EQ(budget.tokens(key), 2.0);  // buckets start full
  EXPECT_TRUE(budget.acquire(key));
  EXPECT_TRUE(budget.acquire(key));

  const std::uint64_t dry_before = counter_value("retry.budget.exhausted");
  EXPECT_FALSE(budget.acquire(key));  // bucket dry: retry denied
  EXPECT_EQ(counter_value("retry.budget.exhausted"), dry_before + 1);

  budget.note_fresh(key);
  budget.note_fresh(key);
  EXPECT_DOUBLE_EQ(budget.tokens(key), 1.0);
  EXPECT_TRUE(budget.acquire(key));

  // The cap: fresh traffic cannot bank more than `burst` tokens.
  for (int i = 0; i < 100; ++i) budget.note_fresh(key);
  EXPECT_DOUBLE_EQ(budget.tokens(key), 2.0);
}

TEST(RetryBudgetTest, PeersHaveIndependentBuckets) {
  fault::RetryBudget::Options options;
  options.burst = 1.0;
  fault::RetryBudget budget(options);
  EXPECT_TRUE(budget.acquire(1));
  EXPECT_FALSE(budget.acquire(1));
  EXPECT_TRUE(budget.acquire(2));  // peer 2 untouched by peer 1's drain
}

// ---------------------------------------------------------------------------
// RPC servers under overload.

TEST(RpcOverloadTest, ShedCallReturnsResourceExhaustedWithoutRetry) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");

  std::atomic<bool> handler_started{false};
  net::RpcServer server(*server_t, net::inproc_endpoint("dione", "busy"));
  server.register_method(
      1, [&](ByteSpan, const net::RpcContext&) -> Result<Bytes> {
        handler_started = true;
        std::this_thread::sleep_for(milliseconds(150));
        return Bytes{};
      });
  net::AdmissionController::Options admission;
  admission.capacity = 1;
  admission.max_queued = 0;
  server.set_admission(admission);
  ASSERT_TRUE(server.start().is_ok());

  std::thread occupant([&] {
    net::RpcClient client(*client_t, server.endpoint());
    EXPECT_TRUE(client.call(1, {}).is_ok());
  });
  while (!handler_started) std::this_thread::sleep_for(milliseconds(1));

  const std::uint64_t shed_before = counter_value("overload.shed");
  const std::uint64_t retries_before = counter_value("retry.attempts");
  net::RpcClient client(*client_t, server.endpoint());
  auto shed = client.call(1, {});
  ASSERT_FALSE(shed.is_ok());
  EXPECT_EQ(shed.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_GE(counter_value("overload.shed"), shed_before + 1);
  // A shed response must never be blindly retried.
  EXPECT_EQ(counter_value("retry.attempts"), retries_before);

  occupant.join();
  server.stop();
}

TEST(RpcOverloadTest, DefaultAdmissionIsTransparentForLightLoad) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  net::RpcServer server(*server_t, net::inproc_endpoint("dione", "light"));
  server.register_method(1, [](ByteSpan request, const net::RpcContext&)
                                -> Result<Bytes> {
    return Bytes(request.begin(), request.end());
  });
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_NE(server.admission(), nullptr);

  const std::uint64_t admitted_before = counter_value("admission.admitted");
  net::RpcClient client(*server_t, server.endpoint());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.call(1, as_bytes_view("x")).is_ok());
  }
  EXPECT_GE(counter_value("admission.admitted"), admitted_before + 5);
  EXPECT_EQ(server.admission()->in_flight(), 0u);
  server.stop();
}

/// Two RPC hops (client -> front -> backend) under one shrinking budget:
/// expiry mid-chain surfaces kDeadlineExceeded end-to-end, never reaches
/// the backend handler, and emits a kDeadlineExpired span.
TEST(RpcOverloadTest, TwoHopDeadlineExpiryCancelsDownstreamWork) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto backend_t = network.transport("dione");
  auto front_t = network.transport("tethys");
  auto client_t = network.transport("jagan");

  std::atomic<int> backend_ran{0};
  net::RpcServer backend(*backend_t, net::inproc_endpoint("dione", "be"));
  backend.register_method(
      1, [&](ByteSpan, const net::RpcContext&) -> Result<Bytes> {
        ++backend_ran;
        return Bytes{};
      });
  ASSERT_TRUE(backend.start().is_ok());

  std::atomic<bool> front_done{false};
  net::RpcServer front(*front_t, net::inproc_endpoint("tethys", "fe"));
  front.register_method(
      1, [&](ByteSpan, const net::RpcContext&) -> Result<Bytes> {
        // Burn the whole budget before the downstream hop: the nested
        // call must be abandoned client-side, not executed late.
        std::this_thread::sleep_for(milliseconds(120));
        net::RpcClient to_backend(*front_t, backend.endpoint());
        auto nested = to_backend.call(1, {});
        front_done = true;
        if (!nested.is_ok()) return nested.status();
        return Bytes{};
      });
  ASSERT_TRUE(front.start().is_ok());

  obs::SpanCollector::global().enable(true);
  (void)obs::SpanCollector::global().drain();
  const std::uint64_t expired_before = counter_value("deadline.expired");

  net::RpcClient client(*client_t, front.endpoint());
  Result<Buffer> reply = [&] {
    ScopedDeadline budget(WallClock::now() + milliseconds(50));
    return client.call(1, {});
  }();
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kDeadlineExceeded);

  // Wait for the front handler to finish its late work, then confirm
  // nothing leaked downstream.
  while (!front_done) std::this_thread::sleep_for(milliseconds(5));
  EXPECT_EQ(backend_ran, 0);
  EXPECT_GE(counter_value("deadline.expired"), expired_before + 1);

  bool saw_expired_span = false;
  for (const obs::SpanRecord& span : obs::SpanCollector::global().drain()) {
    if (span.kind == obs::SpanKind::kDeadlineExpired) saw_expired_span = true;
  }
  EXPECT_TRUE(saw_expired_span);
  obs::SpanCollector::global().enable(false);
  (void)obs::SpanCollector::global().drain();

  front.stop();
  backend.stop();
}

TEST(RpcOverloadTest, ExpiredBudgetRejectedBeforeSend) {
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  std::atomic<int> ran{0};
  net::RpcServer server(*server_t, net::inproc_endpoint("dione", "pre"));
  server.register_method(
      1, [&](ByteSpan, const net::RpcContext&) -> Result<Bytes> {
        ++ran;
        return Bytes{};
      });
  ASSERT_TRUE(server.start().is_ok());

  net::RpcClient client(*server_t, server.endpoint());
  ScopedDeadline expired(WallClock::now() - milliseconds(1));
  auto reply = client.call(1, {});
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(ran, 0);  // never hit the wire
  server.stop();
}

// ---------------------------------------------------------------------------
// Grid Buffer writer backpressure (opt-in, DESIGN.md §14).

class BackpressureTest : public ::testing::Test {
 protected:
  BackpressureTest() : dir_(*TempDir::create("overload-test")) {}
  TempDir dir_;
};

TEST_F(BackpressureTest, WriterBlocksUntilReaderCatchesUp) {
  gridbuffer::ChannelConfig config;
  config.block_size = 1024;
  config.cache_enabled = false;
  config.expected_readers = 1;
  config.max_unread_bytes = 2048;
  gridbuffer::Channel channel("bp", config,
                              dir_.file("bp.cache").string());
  const auto reader = channel.add_reader();

  const Bytes block(1024, std::byte{0x5A});
  ASSERT_TRUE(channel.write(0, block).is_ok());
  ASSERT_TRUE(channel.write(1024, block).is_ok());

  const std::uint64_t waits_before =
      counter_value("gridbuffer.backpressure.waits");
  std::atomic<bool> third_done{false};
  std::thread writer([&] {
    // 3072 unread bytes would exceed the 2048 bound: must block.
    EXPECT_TRUE(channel.write(2048, block).is_ok());
    third_done = true;
  });
  std::this_thread::sleep_for(milliseconds(40));
  EXPECT_FALSE(third_done);

  auto got = channel.read(reader, 0, 1024, 1000);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got->data.size(), 1024u);
  writer.join();
  EXPECT_TRUE(third_done);
  EXPECT_GE(counter_value("gridbuffer.backpressure.waits"),
            waits_before + 1);
}

TEST_F(BackpressureTest, BudgetExpiresUnderBackpressure) {
  gridbuffer::ChannelConfig config;
  config.block_size = 1024;
  config.cache_enabled = false;
  config.expected_readers = 1;
  config.max_unread_bytes = 1024;
  gridbuffer::Channel channel("bp2", config,
                              dir_.file("bp2.cache").string());
  (void)channel.add_reader();

  const Bytes block(1024, std::byte{0x11});
  ASSERT_TRUE(channel.write(0, block).is_ok());

  ScopedDeadline budget(WallClock::now() + milliseconds(50));
  const auto start = WallClock::now();
  const Status blocked = channel.write(1024, block);
  ASSERT_FALSE(blocked.is_ok());
  EXPECT_EQ(blocked.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LT(WallClock::now() - start, std::chrono::seconds(2));
}

}  // namespace
}  // namespace griddles
