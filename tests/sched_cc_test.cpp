// Strict-2PL concurrency control behaviour, certified from the trace.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "audit/sr_certifier.h"
#include "common/rng.h"
#include "sched/database.h"
#include "trace/tracer.h"

namespace atp {
namespace {

using namespace std::chrono_literals;

DatabaseOptions cc_options(Tracer* tracer = nullptr) {
  DatabaseOptions o;
  o.scheduler = SchedulerKind::CC;
  o.lock_timeout = std::chrono::milliseconds(500);
  o.tracer = tracer;
  return o;
}

TEST(CcTxn, ReadYourOwnWrites) {
  Database db(cc_options());
  db.load(1, 100);
  Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(t.write(1, 150).ok());
  EXPECT_EQ(t.read(1).value(), 150);
  ASSERT_TRUE(t.commit().ok());
}

TEST(CcTxn, CommitMakesWritesVisible) {
  Database db(cc_options());
  db.load(1, 100);
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.add(1, 50).ok());
    ASSERT_TRUE(t.commit().ok());
  }
  Txn r = db.begin(TxnKind::Query, EpsilonSpec::serializable());
  EXPECT_EQ(r.read(1).value(), 150);
  ASSERT_TRUE(r.commit().ok());
}

TEST(CcTxn, AbortRollsBackWrites) {
  Database db(cc_options());
  db.load(1, 100);
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.write(1, 999).ok());
    t.abort();
  }
  Txn r = db.begin(TxnKind::Query, EpsilonSpec::serializable());
  EXPECT_EQ(r.read(1).value(), 100);
  ASSERT_TRUE(r.commit().ok());
}

TEST(CcTxn, DestructorAbortsActiveTxn) {
  Database db(cc_options());
  db.load(1, 100);
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.write(1, 999).ok());
    // no commit: the destructor must abort
  }
  Txn r = db.begin(TxnKind::Query, EpsilonSpec::serializable());
  EXPECT_EQ(r.read(1).value(), 100);
  ASSERT_TRUE(r.commit().ok());
}

TEST(CcTxn, QueriesAreReadOnly) {
  Database db(cc_options());
  db.load(1, 100);
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::serializable());
  EXPECT_EQ(q.write(1, 5).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(q.add(1, 5).code(), ErrorCode::kInvalidArgument);
  q.abort();
}

TEST(CcTxn, OpsOnFinishedTxnFail) {
  Database db(cc_options());
  db.load(1, 100);
  Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(t.commit().ok());
  EXPECT_EQ(t.read(1).status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(t.write(1, 1).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(t.commit().code(), ErrorCode::kFailedPrecondition);
}

TEST(CcTxn, ReaderSnapshotsPastWriterWithoutDirtyRead) {
  // Since the multi-version store, CC queries are snapshot reads: read-only
  // transactions over a committed snapshot are serializable (they order
  // before any writer that commits after their begin), so the reader no
  // longer queues behind the writer's X lock -- and still never observes
  // the dirty value.
  Database db(cc_options());
  db.load(1, 100);
  Txn w = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(w.write(1, 150).ok());

  Txn r = db.begin(TxnKind::Query, EpsilonSpec::serializable());
  Result<Value> v = r.read(1);  // does not block; strict 2PL would wait here
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 100);  // committed state as of begin, never the dirty 150
  ASSERT_TRUE(r.commit().ok());
  ASSERT_TRUE(w.commit().ok());

  // A reader beginning after the writer's commit sees the new value.
  Txn r2 = db.begin(TxnKind::Query, EpsilonSpec::serializable());
  EXPECT_EQ(r2.read(1).value(), 150);
  ASSERT_TRUE(r2.commit().ok());
}

TEST(CcTxn, WriteConflictDeadlockVictimCanRetry) {
  Database db(cc_options());
  db.load(1, 0);
  db.load(2, 0);
  // Classic crossing transfer: t1 holds 1 wants 2; t2 holds 2 wants 1.
  Txn t1 = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  Txn t2 = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(t1.add(1, 10).ok());
  ASSERT_TRUE(t2.add(2, 10).ok());
  std::atomic<bool> t1_done{false};
  std::thread th([&] {
    (void)t1.add(2, 10);  // blocks
    t1_done = true;
    (void)t1.commit();
  });
  std::this_thread::sleep_for(50ms);
  const Status s = t2.add(1, 10);  // closes the cycle -> deadlock victim
  EXPECT_EQ(s.code(), ErrorCode::kDeadlock);
  t2.abort();
  th.join();
  EXPECT_TRUE(t1_done.load());
  // Retry of the victim succeeds now.
  Txn t3 = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  EXPECT_TRUE(t3.add(1, 10).ok());
  EXPECT_TRUE(t3.add(2, 10).ok());
  EXPECT_TRUE(t3.commit().ok());
}

TEST(CcHistory, RecordsCommittedProjection) {
  Tracer tracer;
  Database db(cc_options(&tracer));
  db.load(1, 100);
  Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(t.add(1, 1).ok());
  ASSERT_TRUE(t.commit().ok());
  Txn a = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(a.add(1, 1).ok());
  a.abort();
  const auto events = tracer.collect();
  EXPECT_FALSE(events.empty());
  const SrReport sr = certify_sr(events, nullptr, tracer.dropped());
  EXPECT_TRUE(sr.complete);
  EXPECT_EQ(sr.committed_txns, 1u);
  EXPECT_TRUE(sr.serializable) << sr.describe();
}

TEST(CcConcurrent, RandomTransfersAreSerializableAndConserveMoney) {
  Tracer tracer;
  Database db(cc_options(&tracer));
  constexpr int kAccounts = 16;
  constexpr Value kInitial = 1000;
  for (int i = 0; i < kAccounts; ++i) db.load(i, kInitial);

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 50;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        for (;;) {  // retry on deadlock
          Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
          const Key a = rng.uniform(kAccounts);
          Key b = rng.uniform(kAccounts);
          while (b == a) b = rng.uniform(kAccounts);
          const Value d = 1 + Value(rng.uniform(50));
          if (t.add(a, -d).ok() && t.add(b, +d).ok() && t.commit().ok()) break;
          t.abort();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Conservation: the committed sum equals the initial sum exactly.
  Value sum = 0;
  for (const auto& [k, v] : db.store().snapshot_committed()) sum += v;
  EXPECT_EQ(sum, kInitial * kAccounts);
  // And the committed history is conflict-serializable.
  const SrReport sr = certify_sr(tracer.collect(), nullptr, tracer.dropped());
  EXPECT_TRUE(sr.complete);
  EXPECT_TRUE(sr.serializable) << sr.describe();
}

}  // namespace
}  // namespace atp
