#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "lock/lock_manager.h"

namespace atp {
namespace {

using namespace std::chrono_literals;

class LockTest : public ::testing::Test {
 protected:
  LockManager locks_{std::chrono::milliseconds(500)};
};

TEST_F(LockTest, SharedLocksCoexist) {
  EXPECT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  EXPECT_TRUE(locks_.acquire(2, 10, LockMode::Shared).ok());
  EXPECT_TRUE(locks_.holds(1, 10, LockMode::Shared));
  EXPECT_TRUE(locks_.holds(2, 10, LockMode::Shared));
}

TEST_F(LockTest, ExclusiveExcludesShared) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Exclusive).ok());
  std::atomic<bool> granted{false};
  std::thread t([&] {
    const Status s = locks_.acquire(2, 10, LockMode::Shared);
    granted = s.ok();
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(granted.load());  // still blocked
  locks_.release_all(1);
  t.join();
  EXPECT_TRUE(granted.load());  // granted after release
}

TEST_F(LockTest, ReentrantSharedAndExclusive) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  EXPECT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  ASSERT_TRUE(locks_.acquire(1, 11, LockMode::Exclusive).ok());
  EXPECT_TRUE(locks_.acquire(1, 11, LockMode::Exclusive).ok());
  // X covers S.
  EXPECT_TRUE(locks_.acquire(1, 11, LockMode::Shared).ok());
  EXPECT_TRUE(locks_.holds(1, 11, LockMode::Shared));
}

TEST_F(LockTest, UpgradeSharedToExclusive) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  EXPECT_TRUE(locks_.acquire(1, 10, LockMode::Exclusive).ok());
  EXPECT_TRUE(locks_.holds(1, 10, LockMode::Exclusive));
  // Only one holder entry remains.
  EXPECT_EQ(locks_.holders_of(10).size(), 1u);
}

TEST_F(LockTest, UpgradeWaitsForOtherReaders) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  ASSERT_TRUE(locks_.acquire(2, 10, LockMode::Shared).ok());
  std::atomic<bool> upgraded{false};
  std::thread t([&] {
    upgraded = locks_.acquire(1, 10, LockMode::Exclusive).ok();
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(upgraded.load());
  locks_.release_all(2);
  t.join();
  EXPECT_TRUE(upgraded.load());
}

TEST_F(LockTest, DeadlockDetectedAndRequesterAborted) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Exclusive).ok());
  ASSERT_TRUE(locks_.acquire(2, 11, LockMode::Exclusive).ok());
  std::thread t([&] {
    // txn 1 waits for key 11 (held by 2)...
    const Status s = locks_.acquire(1, 11, LockMode::Exclusive);
    if (s.ok()) locks_.release_all(1);
  });
  std::this_thread::sleep_for(50ms);
  // ...and txn 2 closing the cycle must be refused as the deadlock victim.
  const Status s = locks_.acquire(2, 10, LockMode::Exclusive);
  EXPECT_EQ(s.code(), ErrorCode::kDeadlock);
  locks_.release_all(2);
  t.join();
  locks_.release_all(1);
  EXPECT_GE(locks_.stats().deadlocks, 1u);
}

TEST_F(LockTest, UpgradeDeadlockBetweenTwoUpgraders) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  ASSERT_TRUE(locks_.acquire(2, 10, LockMode::Shared).ok());
  std::thread t([&] {
    const Status s = locks_.acquire(1, 10, LockMode::Exclusive);
    if (s.ok()) locks_.release_all(1);
  });
  std::this_thread::sleep_for(50ms);
  const Status s = locks_.acquire(2, 10, LockMode::Exclusive);
  EXPECT_EQ(s.code(), ErrorCode::kDeadlock);
  locks_.release_all(2);
  t.join();
  locks_.release_all(1);
}

TEST_F(LockTest, TimeoutWhenHolderNeverReleases) {
  locks_.set_timeout(100ms);
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Exclusive).ok());
  const Status s = locks_.acquire(2, 10, LockMode::Exclusive);
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_GE(locks_.stats().timeouts, 1u);
}

TEST_F(LockTest, ReleaseAllIsIdempotentAndComplete) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  ASSERT_TRUE(locks_.acquire(1, 11, LockMode::Exclusive).ok());
  locks_.release_all(1);
  locks_.release_all(1);  // idempotent
  EXPECT_FALSE(locks_.holds(1, 10, LockMode::Shared));
  EXPECT_FALSE(locks_.holds(1, 11, LockMode::Shared));
  // Keys fully free for others.
  EXPECT_TRUE(locks_.acquire(2, 10, LockMode::Exclusive).ok());
  EXPECT_TRUE(locks_.acquire(2, 11, LockMode::Exclusive).ok());
}

TEST_F(LockTest, FifoFairnessWriterNotStarvedByReaders) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  std::atomic<bool> writer_granted{false};
  std::thread writer([&] {
    writer_granted = locks_.acquire(2, 10, LockMode::Exclusive).ok();
    if (writer_granted) locks_.release_all(2);
  });
  std::this_thread::sleep_for(50ms);  // writer is now queued
  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    // This reader arrived after the waiting writer: it must NOT overtake.
    const Status s = locks_.acquire(3, 10, LockMode::Shared);
    reader_done = true;
    if (s.ok()) locks_.release_all(3);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(reader_done.load());   // reader waits behind writer
  EXPECT_FALSE(writer_granted.load());
  locks_.release_all(1);
  writer.join();
  reader.join();
  EXPECT_TRUE(writer_granted.load());
  EXPECT_TRUE(reader_done.load());
}

TEST_F(LockTest, WaitStatsCountBlocking) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Exclusive).ok());
  std::thread t([&] {
    (void)locks_.acquire(2, 10, LockMode::Shared);
    locks_.release_all(2);
  });
  std::this_thread::sleep_for(30ms);
  locks_.release_all(1);
  t.join();
  EXPECT_GE(locks_.stats().waits, 1u);
}

TEST_F(LockTest, HoldersOfReportsModes) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  ASSERT_TRUE(locks_.acquire(2, 10, LockMode::Shared).ok());
  ASSERT_TRUE(locks_.acquire(3, 11, LockMode::Exclusive).ok());
  const auto holders = locks_.holders_of(10);
  ASSERT_EQ(holders.size(), 2u);
  for (const auto& h : holders) EXPECT_EQ(h.mode, LockMode::Shared);
  const auto writer = locks_.holders_of(11);
  ASSERT_EQ(writer.size(), 1u);
  EXPECT_EQ(writer[0].txn, 3u);
  EXPECT_EQ(writer[0].mode, LockMode::Exclusive);
}

TEST_F(LockTest, ConflictIsNeverGrantedPastAHolder) {
  // Strict 2PL has no fuzzy path: a conflicting request waits, times out,
  // and never joins the holders.
  locks_.set_timeout(100ms);
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Exclusive).ok());
  EXPECT_EQ(locks_.acquire(2, 10, LockMode::Shared).code(),
            ErrorCode::kTimeout);
  const auto holders = locks_.holders_of(10);
  ASSERT_EQ(holders.size(), 1u);
  EXPECT_EQ(holders[0].txn, 1u);
  EXPECT_FALSE(locks_.holds(2, 10, LockMode::Shared));
  const LockStats st = locks_.stats();
  EXPECT_EQ(st.waits, 1u);
  EXPECT_EQ(st.timeouts, 1u);
  EXPECT_EQ(st.deadlocks, 0u);
}

TEST_F(LockTest, WaitEdgeToQueuedWaiterClosesDeadlock) {
  // 1 holds S(10) and 2 queues for X(10) behind it.  3 holds X(20) and asks
  // S(10): compatible with holder 1, but FIFO parks it behind waiter 2, so
  // 3 waits for 2.  1 asking X(20) then closes 1 -> 3 -> 2 -> 1.
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Shared).ok());
  ASSERT_TRUE(locks_.acquire(3, 20, LockMode::Exclusive).ok());
  std::thread t2([&] {
    EXPECT_TRUE(locks_.acquire(2, 10, LockMode::Exclusive).ok());
    locks_.release_all(2);
  });
  std::this_thread::sleep_for(50ms);
  std::thread t3([&] {
    EXPECT_TRUE(locks_.acquire(3, 10, LockMode::Shared).ok());
    locks_.release_all(3);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(locks_.acquire(1, 20, LockMode::Exclusive).code(),
            ErrorCode::kDeadlock);
  locks_.release_all(1);
  t2.join();
  t3.join();
}

TEST_F(LockTest, CancelledWaiterReturnsAborted) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Exclusive).ok());
  Status result = Status::Ok();
  std::thread t([&] { result = locks_.acquire(2, 10, LockMode::Shared); });
  std::this_thread::sleep_for(50ms);
  locks_.release_all(2);  // cross-thread cancel of txn 2's wait
  t.join();
  EXPECT_EQ(result.code(), ErrorCode::kAborted);
  locks_.release_all(1);
}

TEST_F(LockTest, ThreeWayDeadlockDetected) {
  ASSERT_TRUE(locks_.acquire(1, 10, LockMode::Exclusive).ok());
  ASSERT_TRUE(locks_.acquire(2, 11, LockMode::Exclusive).ok());
  ASSERT_TRUE(locks_.acquire(3, 12, LockMode::Exclusive).ok());
  std::thread t1([&] {
    (void)locks_.acquire(1, 11, LockMode::Exclusive);  // 1 -> 2
  });
  std::thread t2([&] {
    (void)locks_.acquire(2, 12, LockMode::Exclusive);  // 2 -> 3
  });
  std::this_thread::sleep_for(80ms);
  // 3 -> 1 closes the cycle.
  const Status s = locks_.acquire(3, 10, LockMode::Exclusive);
  EXPECT_EQ(s.code(), ErrorCode::kDeadlock);
  locks_.release_all(3);
  t2.join();
  locks_.release_all(2);
  t1.join();
  locks_.release_all(1);
}

/// A key in stripe `stripe`, at or after `from`.
Key key_in_stripe(std::size_t stripe, Key from = 0) {
  Key k = from;
  while (LockManager::stripe_index(k) != stripe) ++k;
  return k;
}

std::vector<std::uint64_t> releases_per_stripe(const LockManager& locks) {
  std::vector<std::uint64_t> out;
  for (const LockStripeSnapshot& s : locks.stripe_stats()) {
    out.push_back(s.releases);
  }
  return out;
}

TEST_F(LockTest, ReleaseAllVisitsOnlyTheTouchedStripes) {
  // An update ET locking two keys in stripes 3 and 9 releases by visiting
  // exactly those two stripes; the other fourteen are never locked.
  const Key a = key_in_stripe(3);
  const Key b = key_in_stripe(9);
  LockManager::StripeMask mask = 0;
  mask |= LockManager::stripe_bit(a);
  ASSERT_TRUE(locks_.acquire(1, a, LockMode::Exclusive).ok());
  mask |= LockManager::stripe_bit(b);
  ASSERT_TRUE(locks_.acquire(1, b, LockMode::Shared).ok());

  const std::vector<std::uint64_t> before = releases_per_stripe(locks_);
  locks_.release_all(1, mask);
  const std::vector<std::uint64_t> after = releases_per_stripe(locks_);
  ASSERT_EQ(after.size(), LockManager::kStripes);
  for (std::size_t i = 0; i < LockManager::kStripes; ++i) {
    const std::uint64_t expect = (i == 3 || i == 9) ? 1 : 0;
    EXPECT_EQ(after[i] - before[i], expect) << "stripe " << i;
  }
  EXPECT_FALSE(locks_.holds(1, a, LockMode::Shared));
  EXPECT_FALSE(locks_.holds(1, b, LockMode::Shared));
  EXPECT_TRUE(locks_.acquire(2, a, LockMode::Exclusive).ok());
  EXPECT_TRUE(locks_.acquire(2, b, LockMode::Exclusive).ok());

  // A lock-free ET (empty mask) visits no stripe at all.
  const std::vector<std::uint64_t> idle = releases_per_stripe(locks_);
  locks_.release_all(3, 0);
  EXPECT_EQ(releases_per_stripe(locks_), idle);
}

TEST_F(LockTest, TouchedStripeReleaseStillCancelsACrossThreadWaiter) {
  // Txn 2 holds a key in stripe 5 and blocks on a key in stripe 12 that txn
  // 1 holds.  Its mask gained stripe 12's bit before the acquire, so a
  // release_all from another thread (the abort path) reaches the pending
  // wait and cancels it, while leaving every untouched stripe alone.
  const Key held = key_in_stripe(5);
  const Key wanted = key_in_stripe(12);
  locks_.set_timeout(10s);  // only the cancel may end the wait
  ASSERT_TRUE(locks_.acquire(1, wanted, LockMode::Exclusive).ok());

  std::atomic<LockManager::StripeMask> mask2{0};
  mask2 |= LockManager::stripe_bit(held);
  ASSERT_TRUE(locks_.acquire(2, held, LockMode::Exclusive).ok());
  Status result = Status::Ok();
  std::thread t([&] {
    mask2 |= LockManager::stripe_bit(wanted);
    result = locks_.acquire(2, wanted, LockMode::Exclusive);
  });
  // Wait until txn 2 is parked in stripe 12.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (locks_.stripe_stats()[12].waiters_now == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(locks_.stripe_stats()[12].waiters_now, 1u);

  const std::vector<std::uint64_t> before = releases_per_stripe(locks_);
  locks_.release_all(2, mask2.load());
  t.join();
  EXPECT_EQ(result.code(), ErrorCode::kAborted);
  const std::vector<std::uint64_t> after = releases_per_stripe(locks_);
  for (std::size_t i = 0; i < LockManager::kStripes; ++i) {
    const std::uint64_t expect = (i == 5 || i == 12) ? 1 : 0;
    EXPECT_EQ(after[i] - before[i], expect) << "stripe " << i;
  }
  EXPECT_FALSE(locks_.holds(2, held, LockMode::Shared));
  EXPECT_TRUE(locks_.holds(1, wanted, LockMode::Exclusive));
  locks_.release_all(1, LockManager::stripe_bit(wanted));
}

}  // namespace
}  // namespace atp
