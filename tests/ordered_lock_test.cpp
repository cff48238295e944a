// Enforcement-layer tests for the ranked mutex wrappers
// (common/ordered_lock.h): in-order acquisition, detected inversions with
// captured reports, shared-vs-exclusive ranks, condvar wait re-acquisition,
// and a two-thread cycle whose witness names both acquisition sites.
//
// The tests install a violation handler, so a detected inversion throws
// LockOrderViolation instead of aborting -- which also means a would-be
// deadlock never actually blocks the suite.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <type_traits>

#include "common/lock_ranks.h"
#include "common/ordered_lock.h"

using atp::LockRank;

#if defined(ATP_LOCK_CHECK)

using namespace atp::lockcheck;

namespace {

ViolationReport g_last;
bool g_fired = false;

void capture(const ViolationReport& r) {
  g_last = r;
  g_fired = true;
}

/// Installs the capturing handler and wipes the edge graph for the test.
struct CheckerFixture {
  CheckerFixture() {
    prev = set_violation_handler(&capture);
    g_fired = false;
    reset_for_testing();
  }
  ~CheckerFixture() {
    set_violation_handler(prev);
    reset_for_testing();
  }
  ViolationHandler prev;
};

}  // namespace

TEST(OrderedLock, InOrderAcquisitionIsCleanAndObserved) {
  CheckerFixture fix;
  atp::OrderedMutex<LockRank::kLockStripe> stripe;
  atp::OrderedMutex<LockRank::kWaitsFor> waits;
  {
    std::lock_guard outer(stripe);
    std::lock_guard inner(waits);
    EXPECT_EQ(held_count(), 2u);
  }
  EXPECT_EQ(held_count(), 0u);
  EXPECT_FALSE(g_fired);

  bool found = false;
  for (const Edge& e : observed_edges()) {
    if (e.from == LockRank::kLockStripe && e.to == LockRank::kWaitsFor) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "legal nesting must still feed the order graph";
  EXPECT_TRUE(find_cycle().empty());
}

TEST(OrderedLock, RankInversionIsReportedNotJustAborted) {
  CheckerFixture fix;
  atp::OrderedMutex<LockRank::kWal> wal;
  atp::OrderedMutex<LockRank::kLockStripe> stripe;
  std::lock_guard held(wal);
  EXPECT_THROW(stripe.lock(), LockOrderViolation);
  ASSERT_TRUE(g_fired);
  EXPECT_EQ(g_last.attempted, LockRank::kLockStripe);
  ASSERT_EQ(g_last.held.size(), 1u);
  EXPECT_EQ(g_last.held[0].rank, LockRank::kWal);
  const std::string report = g_last.to_string();
  EXPECT_NE(report.find("kLockStripe"), std::string::npos) << report;
  EXPECT_NE(report.find("kWal"), std::string::npos) << report;
  // The acquisition was abandoned: only the wal lock is still held.
  EXPECT_EQ(held_count(), 1u);
}

TEST(OrderedLock, SameRankReacquisitionIsAViolation) {
  CheckerFixture fix;
  atp::OrderedMutex<LockRank::kSession> a;
  atp::OrderedMutex<LockRank::kSession> b;
  std::lock_guard held(a);
  // Two locks of equal rank can never nest (the order must be *strictly*
  // increasing), which is also what makes self-deadlock impossible.
  EXPECT_THROW(b.lock(), LockOrderViolation);
}

TEST(OrderedLock, SharedAndExclusiveShareOneRank) {
  CheckerFixture fix;
  atp::OrderedSharedMutex<LockRank::kStoreMap> map;
  atp::OrderedMutex<LockRank::kStoreStripe> cell;
  {
    // The Store idiom: shared map lookup, then the cell stripe.
    std::shared_lock lookup(map);
    std::lock_guard mutate(cell);
    EXPECT_EQ(held_count(), 2u);
  }
  EXPECT_FALSE(g_fired);

  // A shared acquisition below a held higher rank is still an inversion.
  atp::OrderedSharedMutex<LockRank::kTxnStruct> structure;
  atp::OrderedMutex<LockRank::kTxnCharge> charge;
  std::lock_guard held(charge);
  EXPECT_THROW(structure.lock_shared(), LockOrderViolation);
  ASSERT_TRUE(g_fired);
  EXPECT_TRUE(g_last.attempted_shared);
  EXPECT_EQ(g_last.attempted, LockRank::kTxnStruct);
}

TEST(OrderedLock, CondvarWaitReacquisitionKeepsBookkeeping) {
  CheckerFixture fix;
  atp::OrderedMutex<LockRank::kServerQueue> mu;
  atp::OrderedCondVar cv;
  bool ready = false;

  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      std::lock_guard lock(mu);
      ready = true;
    }
    cv.notify_one();
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] {
      // The predicate runs with the lock held (before and after the blocking
      // unlock/relock round trips).
      EXPECT_EQ(held_count(), 1u);
      return ready;
    });
    EXPECT_EQ(held_count(), 1u);
    // The re-acquired lock still participates in ordering checks.
    atp::OrderedMutex<LockRank::kWal> inner;
    std::lock_guard nested(inner);
    EXPECT_EQ(held_count(), 2u);
  }
  producer.join();
  EXPECT_EQ(held_count(), 0u);
  EXPECT_FALSE(g_fired);
}

TEST(OrderedLock, TwoThreadCycleWitnessNamesBothSites) {
  CheckerFixture fix;
  atp::OrderedMutex<LockRank::kWal> wal;
  atp::OrderedMutex<LockRank::kAdmission> admission;

  // Thread 1 nests legally (wal -> admission), feeding that edge's sites.
  // Direct lock() calls so the recorded sites are these very lines.
  std::thread legal([&] {
    wal.lock();
    admission.lock();
    admission.unlock();
    wal.unlock();
  });
  legal.join();

  // Thread 2 nests the other way; the attempt is detected, recorded, and
  // abandoned -- so the test never actually deadlocks.
  std::thread inverted([&] {
    admission.lock();
    try {
      wal.lock();
      wal.unlock();
    } catch (const LockOrderViolation&) {
    }
    admission.unlock();
  });
  inverted.join();

  const std::vector<Edge> cycle = find_cycle();
  ASSERT_EQ(cycle.size(), 2u) << cycle_witness(cycle);
  const std::string witness = cycle_witness(cycle);
  EXPECT_NE(witness.find("kWal -> kAdmission"), std::string::npos) << witness;
  EXPECT_NE(witness.find("kAdmission -> kWal"), std::string::npos) << witness;
  // Both threads' acquisition sites are named, i.e. this file four times.
  std::size_t mentions = 0, pos = 0;
  while ((pos = witness.find("ordered_lock_test.cpp", pos)) !=
         std::string::npos) {
    ++mentions;
    pos += 1;
  }
  EXPECT_EQ(mentions, 4u) << witness;
}

#else  // !ATP_LOCK_CHECK

TEST(OrderedLock, ReleaseBuildAliasesAreZeroOverhead) {
  static_assert(
      std::is_same_v<atp::OrderedMutex<LockRank::kWal>, std::mutex>);
  static_assert(std::is_same_v<atp::OrderedSharedMutex<LockRank::kStoreMap>,
                               std::shared_mutex>);
  static_assert(
      std::is_same_v<atp::OrderedCondVar, std::condition_variable>);
}

#endif  // ATP_LOCK_CHECK
