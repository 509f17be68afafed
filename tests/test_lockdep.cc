// Runtime lock-order detector (src/common/lockdep.h) behaviour:
// inversion and self-deadlock detection, silence on clean nesting, and
// the obs export of lockorder.* counters.
//
// Every test runs under ViolationPolicy::kCount — the default kAbort
// policy is for production test runs (GRIDDLES_LOCKDEP=1 ctest), where
// a cycle must fail loudly; here violations are the expected output.

#include <gtest/gtest.h>

#include "src/common/lockdep.h"
#include "src/common/thread_annotations.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"

namespace griddles {
namespace {

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lockdep::reset();
    lockdep::set_violation_policy(lockdep::ViolationPolicy::kCount);
    lockdep::set_enabled(true);
  }
  void TearDown() override {
    lockdep::set_enabled(false);
    lockdep::set_violation_policy(lockdep::ViolationPolicy::kAbort);
    lockdep::reset();
  }
};

TEST_F(LockdepTest, CleanNestingIsSilent) {
  Mutex outer;
  Mutex inner;
  for (int i = 0; i < 3; ++i) {
    MutexLock a(outer);
    MutexLock b(inner);
  }
  EXPECT_EQ(lockdep::violations(), 0u);
  EXPECT_EQ(lockdep::edges(), 1u);  // outer -> inner, recorded once
  EXPECT_EQ(lockdep::last_violation(), "");
}

TEST_F(LockdepTest, InversionDetectedWithoutDeadlocking) {
  Mutex a;
  Mutex b;
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(lockdep::violations(), 0u);
  {
    // Reverse order on the same thread: no deadlock actually occurs,
    // but the order-based detector must flag the cycle a->b->a.
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_EQ(lockdep::violations(), 1u);
  EXPECT_NE(lockdep::last_violation().find("inversion"), std::string::npos)
      << lockdep::last_violation();
}

TEST_F(LockdepTest, SelfDeadlockDetected) {
  // Drive the hooks directly with a dummy address: acquiring a lock the
  // thread already holds is a guaranteed deadlock under std::mutex, so
  // it cannot be provoked with a real Mutex.
  int dummy = 0;
  lockdep::acquiring(&dummy);
  EXPECT_EQ(lockdep::violations(), 0u);
  lockdep::acquiring(&dummy);
  EXPECT_EQ(lockdep::violations(), 1u);
  EXPECT_NE(lockdep::last_violation().find("self-deadlock"),
            std::string::npos)
      << lockdep::last_violation();
  lockdep::released(&dummy);
  lockdep::released(&dummy);
  EXPECT_EQ(lockdep::held_depth(), 0u);
}

TEST_F(LockdepTest, ExplicitUnlockKeepsHeldStackBalanced) {
  Mutex mu;
  {
    MutexLock lock(mu);
    EXPECT_EQ(lockdep::held_depth(), 1u);
    lock.unlock();
    EXPECT_EQ(lockdep::held_depth(), 0u);
    lock.lock();
    EXPECT_EQ(lockdep::held_depth(), 1u);
  }
  EXPECT_EQ(lockdep::held_depth(), 0u);
  EXPECT_EQ(lockdep::violations(), 0u);
}

TEST_F(LockdepTest, DestroyedMutexDropsItsEdges) {
  Mutex outer;
  {
    Mutex inner;
    MutexLock a(outer);
    MutexLock b(inner);
  }  // inner destroyed: both endpoints of the edge forget it
  EXPECT_EQ(lockdep::edges(), 0u);
  EXPECT_EQ(lockdep::violations(), 0u);
}

TEST_F(LockdepTest, ThreeLockCycleDetected) {
  Mutex a;
  Mutex b;
  Mutex c;
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock lc(c);
  }
  EXPECT_EQ(lockdep::violations(), 0u);
  {
    MutexLock lc(c);
    MutexLock la(a);  // closes a -> b -> c -> a
  }
  EXPECT_EQ(lockdep::violations(), 1u);
}

TEST_F(LockdepTest, CountersExportThroughObsSnapshot) {
  Mutex outer;
  Mutex inner;
  {
    MutexLock a(outer);
    MutexLock b(inner);
  }
  const obs::MetricsSnapshot snap =
      obs::snapshot(obs::MetricsRegistry::global());
  ASSERT_TRUE(snap.counters.count("lockorder.edges"));
  ASSERT_TRUE(snap.counters.count("lockorder.violations"));
  EXPECT_EQ(snap.counters.at("lockorder.edges"), lockdep::edges());
  EXPECT_EQ(snap.counters.at("lockorder.violations"), 0u);

  // The bridged counters reach the JSON export like any metric.
  const std::string json = obs::to_json(snap);
  const auto exported = [&json](const std::string& name) {
    const std::string key = obs::json_quote(name) + ":";
    const std::size_t at = json.find(key);
    if (at == std::string::npos) return std::string("<missing>");
    const std::size_t from = at + key.size();
    return json.substr(from, json.find_first_of(",}", from) - from);
  };
  EXPECT_EQ(exported("lockorder.edges"),
            std::to_string(snap.counters.at("lockorder.edges")))
      << json;
  EXPECT_EQ(exported("lockorder.violations"), "0") << json;
}

TEST_F(LockdepTest, DisabledDetectorRecordsNothing) {
  lockdep::set_enabled(false);
  Mutex outer;
  Mutex inner;
  {
    MutexLock a(outer);
    MutexLock b(inner);
  }
  EXPECT_EQ(lockdep::edges(), 0u);
  EXPECT_EQ(lockdep::violations(), 0u);
}

}  // namespace
}  // namespace griddles
