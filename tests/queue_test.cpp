// Recoverable-queue semantics (Section 4): transactional visibility,
// redelivery on abort, crash durability, retransmission + dedupe.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "queue/recoverable_queue.h"

namespace atp {
namespace {

using namespace std::chrono_literals;

class QueueTest : public ::testing::Test {
 protected:
  QueueTest()
      : net_(2, NetworkOptions{std::chrono::microseconds(100),
                               std::chrono::microseconds(0)}),
        sender_(0, net_),
        receiver_(1, net_),
        db_a_(DatabaseOptions{}),
        db_b_(DatabaseOptions{}) {}

  // Move qdata traffic from site 0's outbound into site 1's inbound, and
  // acks back, as the site service threads would.
  void shuttle() {
    for (int i = 0; i < 10; ++i) {
      while (auto m = net_.receive_request(1, 5ms)) {
        if (m->type == "qdata") receiver_.deliver(*m);
      }
      while (auto m = net_.receive_request(0, 5ms)) {
        if (m->type == "qack") sender_.handle_ack(*m);
      }
      if (sender_.outbound_backlog() == 0) break;
      sender_.pump();
    }
  }

  SimNetwork net_;
  QueueEndpoint sender_;
  QueueEndpoint receiver_;
  Database db_a_;  // at site 0 (sender side)
  Database db_b_;  // at site 1 (receiver side)
};

TEST_F(QueueTest, NothingSentUntilSenderCommits) {
  Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
  sender_.enqueue(t, 1, "q", std::string("hello"));
  EXPECT_EQ(sender_.outbound_backlog(), 0u);  // staged, not durable
  EXPECT_EQ(net_.stats().sent, 0u);
  ASSERT_TRUE(t.commit().ok());
  EXPECT_EQ(sender_.stats().enqueued, 1u);
  shuttle();
  EXPECT_EQ(receiver_.depth("q"), 1u);
}

TEST_F(QueueTest, AbortedSenderSendsNothing) {
  Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
  sender_.enqueue(t, 1, "q", std::string("hello"));
  t.abort();
  shuttle();
  EXPECT_EQ(receiver_.depth("q"), 0u);
  EXPECT_EQ(sender_.stats().enqueued, 0u);
}

TEST_F(QueueTest, DequeueConsumesOnCommit) {
  {
    Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    sender_.enqueue(t, 1, "q", std::string("payload"));
    ASSERT_TRUE(t.commit().ok());
  }
  shuttle();
  Txn r = db_b_.begin(TxnKind::Update, EpsilonSpec::unlimited());
  auto payload = receiver_.try_dequeue(r, "q");
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(std::any_cast<std::string>(*payload), "payload");
  EXPECT_EQ(receiver_.depth("q"), 0u);
  ASSERT_TRUE(r.commit().ok());
  EXPECT_EQ(receiver_.stats().consumed, 1u);
  // Gone for good.
  Txn r2 = db_b_.begin(TxnKind::Update, EpsilonSpec::unlimited());
  EXPECT_FALSE(receiver_.try_dequeue(r2, "q").has_value());
  r2.abort();
}

TEST_F(QueueTest, DequeueReturnsToFrontOnAbort) {
  {
    Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    sender_.enqueue(t, 1, "q", std::string("first"));
    sender_.enqueue(t, 1, "q", std::string("second"));
    ASSERT_TRUE(t.commit().ok());
  }
  shuttle();
  ASSERT_EQ(receiver_.depth("q"), 2u);
  {
    Txn r = db_b_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    auto p = receiver_.try_dequeue(r, "q");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(std::any_cast<std::string>(*p), "first");
    r.abort();  // the message must return to the FRONT
  }
  EXPECT_EQ(receiver_.stats().redelivered, 1u);
  Txn r = db_b_.begin(TxnKind::Update, EpsilonSpec::unlimited());
  auto p = receiver_.try_dequeue(r, "q");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(std::any_cast<std::string>(*p), "first");  // order preserved
  ASSERT_TRUE(r.commit().ok());
}

TEST_F(QueueTest, EmptyQueueYieldsNothing) {
  Txn r = db_b_.begin(TxnKind::Update, EpsilonSpec::unlimited());
  EXPECT_FALSE(receiver_.try_dequeue(r, "nope").has_value());
  r.abort();
}

TEST_F(QueueTest, RetransmissionsAreDeduplicated) {
  {
    Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    sender_.enqueue(t, 1, "q", std::string("once"));
    ASSERT_TRUE(t.commit().ok());
  }
  // Force several retransmissions before any ack is processed.
  sender_.set_retry_interval(0ms);
  sender_.pump();
  sender_.pump();
  shuttle();
  EXPECT_EQ(receiver_.depth("q"), 1u);  // exactly once
  EXPECT_GE(receiver_.stats().duplicates, 1u);
}

TEST_F(QueueTest, OutboundSurvivesSenderCrash) {
  {
    Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    sender_.enqueue(t, 1, "q", std::string("durable"));
    ASSERT_TRUE(t.commit().ok());
  }
  // Receiver down: transmissions dropped.
  net_.set_site_up(1, false);
  sender_.pump();
  EXPECT_EQ(sender_.outbound_backlog(), 1u);
  // Sender crashes and recovers: committed outbound persists.
  sender_.crash();
  EXPECT_EQ(sender_.outbound_backlog(), 1u);
  net_.set_site_up(1, true);
  sender_.set_retry_interval(0ms);
  shuttle();
  EXPECT_EQ(receiver_.depth("q"), 1u);
}

TEST_F(QueueTest, ClaimRevertsOnReceiverCrash) {
  {
    Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    sender_.enqueue(t, 1, "q", std::string("claimme"));
    ASSERT_TRUE(t.commit().ok());
  }
  shuttle();
  Txn r = db_b_.begin(TxnKind::Update, EpsilonSpec::unlimited());
  ASSERT_TRUE(receiver_.try_dequeue(r, "q").has_value());
  EXPECT_EQ(receiver_.depth("q"), 0u);
  // Site crashes with the claim in flight: the message must come back.
  receiver_.crash();
  EXPECT_EQ(receiver_.depth("q"), 1u);
  // The zombie transaction's abort must not double-redeliver.
  r.abort();
  EXPECT_EQ(receiver_.depth("q"), 1u);
}

TEST_F(QueueTest, CrashWaitsForAConsumerCommitInItsHooks) {
  // A consumer that has published its writes is committed, even while its
  // commit hooks -- one of which settles the claim -- have yet to run.  A
  // site crash in that window must wait for the hooks instead of returning
  // the message to the queue, or the piece it carries is applied twice.
  {
    Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    sender_.enqueue(t, 1, "q", std::string("once"));
    ASSERT_TRUE(t.commit().ok());
  }
  shuttle();
  db_b_.load(7, 0);
  std::promise<void> in_hooks;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread consumer([&] {
    Txn r = db_b_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    // Registered before the claim's hook, so it runs first.
    r.on_commit([&] {
      in_hooks.set_value();
      released.wait();
    });
    const bool claimed = receiver_.try_dequeue(r, "q").has_value();
    EXPECT_TRUE(claimed);
    EXPECT_TRUE(r.add(7, 1).ok());
    EXPECT_TRUE(r.commit().ok());
  });
  in_hooks.get_future().wait();
  // What Site::crash does: drop dirty data, then revert in-flight claims.
  std::future<void> crashed = std::async(std::launch::async, [&] {
    db_b_.crash();
    receiver_.crash();
  });
  EXPECT_EQ(crashed.wait_for(100ms), std::future_status::timeout)
      << "the crash must wait for the commit in flight";
  release.set_value();
  consumer.join();
  crashed.get();
  EXPECT_EQ(db_b_.store().read_committed(7).value_or(-1), 1);
  EXPECT_EQ(receiver_.depth("q"), 0u) << "consumed once, never returned";
  EXPECT_EQ(receiver_.stats().consumed, 1u);
}

TEST_F(QueueTest, MultipleQueuesAreIndependent) {
  {
    Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    sender_.enqueue(t, 1, "alpha", std::string("a"));
    sender_.enqueue(t, 1, "beta", std::string("b"));
    ASSERT_TRUE(t.commit().ok());
  }
  shuttle();
  EXPECT_EQ(receiver_.depth("alpha"), 1u);
  EXPECT_EQ(receiver_.depth("beta"), 1u);
  auto names = receiver_.nonempty_queues();
  EXPECT_EQ(names.size(), 2u);
}

TEST_F(QueueTest, FifoOrderWithinQueue) {
  {
    Txn t = db_a_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    for (int i = 0; i < 5; ++i) {
      sender_.enqueue(t, 1, "q", std::to_string(i));
    }
    ASSERT_TRUE(t.commit().ok());
  }
  shuttle();
  for (int i = 0; i < 5; ++i) {
    Txn r = db_b_.begin(TxnKind::Update, EpsilonSpec::unlimited());
    auto p = receiver_.try_dequeue(r, "q");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(std::any_cast<std::string>(*p), std::to_string(i));
    ASSERT_TRUE(r.commit().ok());
  }
}

}  // namespace
}  // namespace atp
