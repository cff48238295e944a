// Divergence control over the multi-version store: queries read versions
// (never locks), import fuzziness is charged from version timestamps
// (|v_latest - v_snapshot| per key), budget exhaustion degrades to snapshot
// reads, and the ESR guarantee that observed inconsistency stays within
// eps-specs holds end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sched/database.h"

namespace atp {
namespace {

using namespace std::chrono_literals;

DatabaseOptions dc_options(std::chrono::milliseconds timeout = 500ms) {
  DatabaseOptions o;
  o.scheduler = SchedulerKind::DC;
  o.lock_timeout = timeout;
  return o;
}

TEST(DcTxn, QueryNeverBlocksOrSeesUncommittedWrites) {
  Database db(dc_options());
  db.load(1, 100);
  Txn u = db.begin(TxnKind::Update, EpsilonSpec::exporting(100));
  ASSERT_TRUE(u.write(1, 150).ok());  // X lock + dirty value staged

  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
  Result<Value> v = q.read(1);  // would block under CC; version read here
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 100);   // committed state only: dirty never leaks
  EXPECT_EQ(q.fuzziness(), 0); // nothing diverged, nothing charged
  ASSERT_TRUE(q.commit().ok());
  ASSERT_TRUE(u.commit().ok());
}

TEST(DcTxn, StaleReadChargesVersionDistanceWithinBudget) {
  Database db(dc_options());
  db.load(1, 100);
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
  {
    Txn u = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
    ASSERT_TRUE(u.write(1, 150).ok());
    ASSERT_TRUE(u.commit().ok());  // key moves past q's snapshot
  }
  Result<Value> v = q.read(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 150);     // freshest version, within budget
  EXPECT_EQ(q.fuzziness(), 50);  // |150 - 100| imported
  ASSERT_TRUE(q.commit().ok());
}

TEST(DcTxn, BudgetTooSmallFallsBackToSnapshotRead) {
  Database db(dc_options(200ms));
  db.load(1, 100);
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(10));  // < 50
  {
    Txn u = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
    ASSERT_TRUE(u.write(1, 150).ok());
    ASSERT_TRUE(u.commit().ok());
  }
  // Old DC blocked here (import budget exhausted -> wait like 2PL).  The
  // version store answers from the snapshot instead: consistent and free.
  Result<Value> v = q.read(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 100);
  EXPECT_EQ(q.fuzziness(), 0);
  ASSERT_TRUE(q.commit().ok());
}

TEST(DcTxn, UpdateNeverBlocksOnConcurrentQuery) {
  Database db(dc_options());
  db.load(1, 100);
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
  ASSERT_TRUE(q.read(1).ok());  // snapshot read: no S lock taken

  Txn u = db.begin(TxnKind::Update, EpsilonSpec::exporting(100));
  ASSERT_TRUE(u.add(1, 30).ok());  // would block under CC behind q's S lock
  ASSERT_TRUE(u.commit().ok());
  // The query pays for freshness only if it looks again.
  Result<Value> v = q.read(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 130);
  EXPECT_EQ(q.fuzziness(), 30);
  ASSERT_TRUE(q.commit().ok());
}

TEST(DcTxn, ExhaustedQueryDegradesWhileUpdatesProceed) {
  Database db(dc_options(200ms));
  db.load(1, 100);
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(5));
  ASSERT_TRUE(q.read(1).ok());

  // Old DC blocked this update (export > q's remaining import).  Now the
  // update is never taxed for concurrent queries and commits immediately.
  Txn u = db.begin(TxnKind::Update, EpsilonSpec::exporting(1000));
  ASSERT_TRUE(u.add(1, 30).ok());
  ASSERT_TRUE(u.commit().ok());

  Result<Value> v = q.read(1);  // delta 30 > budget 5: snapshot version
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 100);
  EXPECT_EQ(q.fuzziness(), 0);
  ASSERT_TRUE(q.commit().ok());
}

TEST(DcTxn, UpdateUpdateConflictsNeverFuzzyGrant) {
  Database db(dc_options(200ms));
  db.load(1, 100);
  Txn u1 = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
  ASSERT_TRUE(u1.write(1, 150).ok());
  Txn u2 = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
  // Even unlimited budgets must not let updates interleave: update ETs stay
  // serializable among themselves (Section 1.1).
  const Status s = u2.write(1, 160);
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  u2.abort();
  ASSERT_TRUE(u1.commit().ok());
}

TEST(DcTxn, QueryQueryNeverConflicts) {
  Database db(dc_options());
  db.load(1, 100);
  Txn q1 = db.begin(TxnKind::Query, EpsilonSpec::importing(0));
  Txn q2 = db.begin(TxnKind::Query, EpsilonSpec::importing(0));
  EXPECT_TRUE(q1.read(1).ok());
  EXPECT_TRUE(q2.read(1).ok());
  ASSERT_TRUE(q1.commit().ok());
  ASSERT_TRUE(q2.commit().ok());
}

TEST(DcTxn, ZeroEpsilonBehavesLikeSerializable) {
  Database db(dc_options(200ms));
  db.load(1, 100);
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(0));
  {
    Txn u = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
    ASSERT_TRUE(u.write(1, 150).ok());
    ASSERT_TRUE(u.commit().ok());
  }
  // Zero import budget means pure snapshot reads -- a serializable query
  // that sees the database exactly as of its begin, with Z == 0.
  Result<Value> v = q.read(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 100);
  EXPECT_EQ(q.fuzziness(), 0);
  ASSERT_TRUE(q.commit().ok());
}

TEST(DcTxn, SequentialDivergenceChargesOnlyTheIncrease) {
  Database db(dc_options(200ms));
  db.load(1, 100);
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(60));

  const auto commit_add = [&](Value d) {
    Txn u = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
    ASSERT_TRUE(u.add(1, d).ok());
    ASSERT_TRUE(u.commit().ok());
  };

  // Divergence 40 fits the 60 budget: fresh read, charged in full.
  commit_add(40);
  ASSERT_TRUE(q.read(1).ok());
  EXPECT_EQ(q.read(1).value(), 140);
  EXPECT_EQ(q.fuzziness(), 40);

  // Divergence now 80; the extra 40 exceeds the remaining 20 -> the read
  // degrades to the (still consistent) snapshot version, charging nothing.
  commit_add(40);
  EXPECT_EQ(q.read(1).value(), 100);
  EXPECT_EQ(q.fuzziness(), 40);

  // The key swings back: divergence 55, increase over the 40 already paid
  // is 15 <= 20 remaining -> fresh again.
  commit_add(-25);
  EXPECT_EQ(q.read(1).value(), 155);
  EXPECT_EQ(q.fuzziness(), 55);
  ASSERT_TRUE(q.commit().ok());
}

TEST(DcTxn, ConcurrentQueriesChargeIndependentBudgets) {
  Database db(dc_options(200ms));
  db.load(1, 100);
  Txn q1 = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
  Txn q2 = db.begin(TxnKind::Query, EpsilonSpec::importing(5));
  {
    Txn u = db.begin(TxnKind::Update, EpsilonSpec::exporting(50));
    ASSERT_TRUE(u.add(1, 20).ok());
    ASSERT_TRUE(u.commit().ok());  // no export tax, no blocking
  }
  // Each query pays from its own account: q1 affords freshness, q2 does not.
  EXPECT_EQ(q1.read(1).value(), 120);
  EXPECT_EQ(q1.fuzziness(), 20);
  EXPECT_EQ(q2.read(1).value(), 100);
  EXPECT_EQ(q2.fuzziness(), 0);
  ASSERT_TRUE(q1.commit().ok());
  ASSERT_TRUE(q2.commit().ok());
}

TEST(DcTxn, AbortedQueryFuzzinessResets) {
  Database db(dc_options());
  db.load(1, 100);
  {
    Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
    Txn u = db.begin(TxnKind::Update, EpsilonSpec::exporting(1000));
    ASSERT_TRUE(u.write(1, 150).ok());
    ASSERT_TRUE(u.commit().ok());
    ASSERT_TRUE(q.read(1).ok());
    EXPECT_EQ(q.fuzziness(), 50);
    q.abort();  // Z resets to zero with the abort
  }
  // A fresh query starts from a clean account (and a fresh snapshot, so the
  // earlier movement is simply part of its consistent view).
  Txn q2 = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
  ASSERT_TRUE(q2.read(1).ok());
  EXPECT_EQ(q2.read(1).value(), 150);
  EXPECT_EQ(q2.fuzziness(), 0);
  ASSERT_TRUE(q2.commit().ok());
}

TEST(DcTxn, QueriesBypassTheLockManagerEntirely) {
  Database db(dc_options());
  db.load(1, 100);
  const auto total_acquires = [&] {
    std::uint64_t n = 0;
    for (const LockStripeSnapshot& s : db.locks().stripe_stats()) {
      n += s.acquires;
    }
    return n;
  };
  const std::uint64_t before = total_acquires();
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
  ASSERT_TRUE(q.read(1).ok());
  EXPECT_TRUE(db.locks().holders_of(1).empty());  // nothing held mid-query
  ASSERT_TRUE(q.commit().ok());
  EXPECT_EQ(total_acquires(), before);            // no lock traffic at all
  EXPECT_GE(db.store().mvcc_stats().snapshots_acquired, 1u);
}

TEST(DcTxn, CrashRestartNeverUnderCountsBudgets) {
  // Crash-restart interaction of the epsilon ledger with durability: an
  // update dies with the crash -- its handle must NOT be able to commit
  // afterwards (the staged write was wiped; "committing" would install
  // nothing while reporting success).  Post-recovery, fresh transactions
  // run with a clean ledger and the committed state is intact.
  LogDevice wal;
  DatabaseOptions o = dc_options();
  o.wal = &wal;
  Database db(o);
  db.load(1, 100);
  db.checkpoint();

  Txn u = db.begin(TxnKind::Update, EpsilonSpec::exporting(60));
  ASSERT_TRUE(u.add(1, 50).ok());
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(60));
  ASSERT_TRUE(q.read(1).ok());  // committed state: the staged 50 is invisible
  EXPECT_EQ(q.fuzziness(), 0);
  ASSERT_TRUE(q.commit().ok());

  db.crash();
  // The crash-epoch guard refuses the stale commit.
  EXPECT_FALSE(u.commit().ok());

  (void)db.recover_from_wal();
  EXPECT_EQ(db.store().read_committed(1).value(), 100);

  // The ledger is clean: a full-budget import succeeds afresh.
  Txn u2 = db.begin(TxnKind::Update, EpsilonSpec::exporting(60));
  ASSERT_TRUE(u2.add(1, 50).ok());
  Txn q2 = db.begin(TxnKind::Query, EpsilonSpec::importing(60));
  ASSERT_TRUE(u2.commit().ok());
  ASSERT_TRUE(q2.read(1).ok());  // committed after q2's snapshot: charges 50
  EXPECT_EQ(q2.fuzziness(), 50);
  ASSERT_TRUE(q2.commit().ok());
  EXPECT_EQ(db.store().read_committed(1).value(), 150);
}

TEST(DcGuarantee, AuditErrorBoundedByImportLimit) {
  Database db(dc_options(std::chrono::milliseconds(2000)));
  constexpr int kAccounts = 8;
  constexpr Value kInitial = 1000;
  constexpr Value kEps = 120;
  for (int i = 0; i < kAccounts; ++i) db.load(i, kInitial);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(77 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        Txn t = db.begin(TxnKind::Update, EpsilonSpec::exporting(100));
        const Key a = rng.uniform(kAccounts);
        Key b = rng.uniform(kAccounts);
        while (b == a) b = rng.uniform(kAccounts);
        const Value d = 1 + Value(rng.uniform(40));
        if (!t.add(a, -d).ok() || !t.add(b, +d).ok() || !t.commit().ok()) {
          t.abort();
        }
      }
    });
  }

  for (int round = 0; round < 20; ++round) {
    for (;;) {
      Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(kEps));
      Value sum = 0;
      bool failed = false;
      for (int i = 0; i < kAccounts; ++i) {
        Result<Value> v = q.read(i);
        if (!v.ok()) {
          failed = true;  // snapshot too old under churn: retry afresh
          break;
        }
        sum += v.value();
      }
      if (failed) {
        q.abort();
        continue;
      }
      const Value z = q.fuzziness();
      ASSERT_TRUE(q.commit().ok());
      const Value err = distance(sum, kInitial * kAccounts);
      // Realized inconsistency never exceeds the accounted fuzziness, which
      // never exceeds the import limit.
      EXPECT_LE(err, z + 1e-9);
      EXPECT_LE(z, kEps + 1e-9);
      break;
    }
  }
  stop = true;
  for (auto& t : writers) t.join();
}

}  // namespace
}  // namespace atp
