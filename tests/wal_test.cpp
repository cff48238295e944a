// Write-ahead log + recovery: redo-only replay, checkpointing, in-doubt 2PC
// state, log-backed recoverable queues, chopped-transaction continuations,
// and randomized crash-replay properties (committed-prefix atomicity).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "net/network.h"
#include "queue/recoverable_queue.h"
#include "sched/database.h"
#include "wal/continuation.h"
#include "wal/log.h"
#include "wal/recovery.h"

namespace atp {
namespace {

DatabaseOptions wal_options(LogDevice* wal) {
  DatabaseOptions o;
  o.wal = wal;
  return o;
}

TEST(LogDevice, AssignsMonotonicLsns) {
  LogDevice log;
  EXPECT_EQ(log.append(LogRecord{}), 1u);
  EXPECT_EQ(log.append(LogRecord{}), 2u);
  EXPECT_EQ(log.next_lsn(), 3u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(LogDevice, FsyncCounts) {
  LogDevice log;
  log.fsync();
  log.fsync();
  EXPECT_EQ(log.fsync_count(), 2u);
}

TEST(LogDevice, TruncateDropsPrefix) {
  LogDevice log;
  log.append(LogRecord{});
  log.append(LogRecord{});
  log.append(LogRecord{});
  log.truncate_before(3);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].lsn, 3u);
}

TEST(Recovery, CommittedWritesRedo) {
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.add(1, 50).ok());
    ASSERT_TRUE(t.commit().ok());
  }
  EXPECT_GE(log.fsync_count(), 1u);  // force-at-commit

  // Total loss; rebuild from the log.
  const RecoveryResult r = db.recover_from_wal();
  EXPECT_EQ(r.committed_txns, 1u);
  EXPECT_EQ(db.store().read_committed(1).value(), 150);
}

TEST(Recovery, UncommittedAndAbortedWritesDoNotRedo) {
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.write(1, 999).ok());
    t.abort();
  }
  const RecoveryResult r = db.recover_from_wal();
  EXPECT_EQ(r.committed_txns, 0u);
  // Key 1 was never checkpointed or committed-written: it is simply absent
  // (the pre-log load() is not durable by itself).
  EXPECT_FALSE(db.store().read_committed(1).ok());
}

TEST(Recovery, CheckpointCapturesLoadedState) {
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  db.load(2, 200);
  db.checkpoint();  // quiescent snapshot makes the loads durable
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.add(1, 11).ok());
    ASSERT_TRUE(t.commit().ok());
  }
  const RecoveryResult r = db.recover_from_wal();
  EXPECT_EQ(db.store().read_committed(1).value(), 111);
  EXPECT_EQ(db.store().read_committed(2).value(), 200);
  EXPECT_EQ(r.redone_writes, 1u);  // only the post-checkpoint write
}

TEST(Recovery, CheckpointTruncatesTheLog) {
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  for (int i = 0; i < 10; ++i) {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.add(1, 1).ok());
    ASSERT_TRUE(t.commit().ok());
  }
  const std::size_t before = log.size();
  db.checkpoint();
  EXPECT_LT(log.size(), before);
  (void)db.recover_from_wal();
  EXPECT_EQ(db.store().read_committed(1).value(), 110);
}

TEST(Recovery, PreparedTransactionSurvivesAsInDoubt) {
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(t.write(1, 175).ok());
  t.log_prepare();  // the 2PC vote's force-log
  const TxnId prepared_id = t.id();
  // Crash before any decision: the txn handle dies with the process.

  const RecoveryResult r = db.recover_from_wal();
  ASSERT_EQ(r.in_doubt.size(), 1u);
  EXPECT_EQ(r.in_doubt[0].txn, prepared_id);
  ASSERT_EQ(r.in_doubt[0].staged.size(), 1u);
  EXPECT_EQ(r.in_doubt[0].staged[0], (std::pair<Key, Value>{1, 175}));
  // The staged write is NOT applied: the coordinator's decision does that.
  EXPECT_FALSE(db.store().read_committed(1).ok());
  t.abort();  // silence the handle (post-recovery it has no effect)
}

TEST(Recovery, PreparedThenCommittedRedoesNormally) {
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(t.write(1, 175).ok());
  t.log_prepare();
  ASSERT_TRUE(t.commit().ok());
  const RecoveryResult r = db.recover_from_wal();
  EXPECT_TRUE(r.in_doubt.empty());
  EXPECT_EQ(db.store().read_committed(1).value(), 175);
}

TEST(Recovery, CheckpointPreservesInDoubtPreparedState) {
  // Regression: checkpoint truncation used to cut the log at the snapshot
  // unconditionally, dropping the kWrite/kPrepare records of an in-doubt
  // 2PC participant that predated it -- after the next crash the
  // coordinator's commit decision had nothing to apply.  Truncation now
  // respects the oldest undecided transaction.
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  db.load(2, 200);
  db.checkpoint();

  Txn p = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(p.write(1, 175).ok());
  p.log_prepare();  // voted; awaiting the coordinator's decision
  const TxnId prepared_id = p.id();

  // Unrelated traffic commits, then a checkpoint truncates the log.
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.add(2, 5).ok());
    ASSERT_TRUE(t.commit().ok());
  }
  db.checkpoint();

  const RecoveryResult r = db.recover_from_wal();
  ASSERT_EQ(r.in_doubt.size(), 1u);
  EXPECT_EQ(r.in_doubt[0].txn, prepared_id);
  ASSERT_EQ(r.in_doubt[0].staged.size(), 1u);
  EXPECT_EQ(r.in_doubt[0].staged[0], (std::pair<Key, Value>{1, 175}));
  // Committed state is intact either way.
  EXPECT_EQ(db.store().read_committed(1).value(), 100);
  EXPECT_EQ(db.store().read_committed(2).value(), 205);
  p.abort();  // silence the handle
}

TEST(Recovery, InDoubtStagedWritesBelowCheckpointHorizonAreKept) {
  // Regression (hand-crafted log): recovery used to skip staged writes at
  // lsn <= checkpoint horizon when collecting in-doubt state, losing the
  // after-images a post-crash commit decision needs.  A prepared txn is
  // never part of the snapshot, so its writes must be collected from
  // anywhere in the log.
  LogDevice log;
  LogRecord w;
  w.type = LogRecordType::kWrite;
  w.txn = 5;
  w.key = 1;
  w.value = 175;
  log.append(std::move(w));
  LogRecord p;
  p.type = LogRecordType::kPrepare;
  p.txn = 5;
  log.append(std::move(p));
  LogRecord kv;
  kv.type = LogRecordType::kCheckpointKv;
  kv.key = 1;
  kv.value = 100;
  const std::uint64_t first_kv = log.append(std::move(kv));
  LogRecord marker;
  marker.type = LogRecordType::kCheckpoint;
  marker.qmsg_id = first_kv;  // the marker names its kv run
  log.append(std::move(marker));

  Store store;
  const RecoveryResult r = recover_from_log(log, store);
  EXPECT_EQ(store.read_committed(1).value(), 100);  // snapshot state
  ASSERT_EQ(r.in_doubt.size(), 1u);
  EXPECT_EQ(r.in_doubt[0].txn, 5u);
  ASSERT_EQ(r.in_doubt[0].staged.size(), 1u);
  EXPECT_EQ(r.in_doubt[0].staged[0], (std::pair<Key, Value>{1, 175}));
}

TEST(Recovery, WinnerCommittedAfterCheckpointRedoesPreCheckpointWrites) {
  // The checkpoint snapshot reflects exactly the transactions whose COMMIT
  // precedes the marker (no-steal: staged writes never enter the snapshot).
  // A transaction that staged before the checkpoint but committed after it
  // must redo ALL its writes, including the pre-checkpoint ones.
  LogDevice log;
  LogRecord w;
  w.type = LogRecordType::kWrite;
  w.txn = 7;
  w.key = 1;
  w.value = 500;
  log.append(std::move(w));
  LogRecord kv;
  kv.type = LogRecordType::kCheckpointKv;
  kv.key = 1;
  kv.value = 100;
  const std::uint64_t first_kv = log.append(std::move(kv));
  LogRecord marker;
  marker.type = LogRecordType::kCheckpoint;
  marker.qmsg_id = first_kv;
  log.append(std::move(marker));
  LogRecord c;
  c.type = LogRecordType::kCommit;
  c.txn = 7;
  log.append(std::move(c));

  Store store;
  const RecoveryResult r = recover_from_log(log, store);
  EXPECT_EQ(r.redone_writes, 1u);
  EXPECT_EQ(store.read_committed(1).value(), 500);
}

// --- torn tails & failed fsyncs --------------------------------------------

TEST(LogDevice, TearToDurableDropsOnlyTheUnsyncedTail) {
  LogDevice log;
  log.append(LogRecord{});
  ASSERT_TRUE(log.fsync());
  log.append(LogRecord{});
  log.append(LogRecord{});
  EXPECT_EQ(log.durable_lsn(), 1u);
  log.tear_to_durable();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].lsn, 1u);
  // LSNs are never reused after a tear.
  EXPECT_EQ(log.next_lsn(), 4u);
  EXPECT_EQ(log.append(LogRecord{}), 4u);
}

TEST(LogDevice, CommitRetriesFailedFsyncsUntilDurable) {
  // Injected transient fsync failures: the commit path retries (with
  // backoff) until the force succeeds, so commit acknowledgement always
  // implies durability -- a crash plus torn tail right after commit loses
  // nothing the caller was promised.
  LogDevice log;
  FaultSpec spec;
  spec.fsync_fail = 1.0;
  spec.max_consecutive_fsync_fails = 2;  // device "recovers" quickly
  FaultInjector inj(3, spec);
  log.set_fault_injector(&inj, 0);

  Database db(wal_options(&log));
  db.load(1, 100);
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.add(1, 50).ok());
    ASSERT_TRUE(t.commit().ok());
  }
  EXPECT_GT(log.fsync_failures(), 0u);

  // Everything the commit promised survives a torn tail.
  log.tear_to_durable();
  const RecoveryResult r = db.recover_from_wal();
  EXPECT_EQ(r.committed_txns, 1u);
  EXPECT_EQ(db.store().read_committed(1).value(), 150);
}

// --- group commit ----------------------------------------------------------

TEST(GroupCommit, FsyncsFarFewerThanCommitsUnderConcurrency) {
  // Eight sync committers racing: each waits for a group flush covering its
  // commit record, but the flush leader batches everyone queued behind it
  // into one device fsync.  A realistic per-fsync latency gives followers
  // time to pile up; the whole point of the subsystem is fsyncs << commits.
  LogDevice log;
  log.set_fsync_latency(std::chrono::microseconds(300));
  Database db(wal_options(&log));
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;
  for (int k = 0; k < kThreads; ++k) db.load(k, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        Txn txn = db.begin(TxnKind::Update, EpsilonSpec::serializable());
        ASSERT_TRUE(txn.add(t, 1).ok());
        ASSERT_TRUE(txn.commit().ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::uint64_t kCommits = kThreads * kCommitsPerThread;
  const GroupCommitStats gs = db.group_committer()->stats();
  EXPECT_EQ(gs.sync_commits, kCommits);
  EXPECT_LT(log.fsync_count(), kCommits / 2);  // batching actually happened
  EXPECT_GT(gs.batched, 0u);
  // Every commit acknowledgement was backed by a durable record.
  EXPECT_GE(log.durable_lsn(), 1u);
  for (int k = 0; k < kThreads; ++k) {
    EXPECT_EQ(db.store().read_committed(k).value(), kCommitsPerThread);
  }
}

TEST(GroupCommit, SyncCommitNeverReportsBeforeItsLsnIsDurable) {
  // The contract behind CommitWait::kSync: by the time commit() returns, the
  // device's durable frontier covers the transaction's commit record.  Check
  // it from inside the racing threads, where a violation would actually bite.
  // Half the fsync attempts fail: a failed flush must never advance the
  // lock-free frontier that already-covered committers return on.
  LogDevice log;
  log.set_fsync_latency(std::chrono::microseconds(200));
  FaultSpec spec;
  spec.fsync_fail = 0.5;
  spec.max_consecutive_fsync_fails = 3;
  FaultInjector inj(11, spec);
  log.set_fault_injector(&inj, 0);
  Database db(wal_options(&log));
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 20;
  for (int k = 0; k < kThreads; ++k) db.load(k, 0);
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        Txn txn = db.begin(TxnKind::Update, EpsilonSpec::serializable());
        ASSERT_TRUE(txn.add(t, 1).ok());
        ASSERT_TRUE(txn.commit().ok());
        if (log.durable_lsn() < txn.commit_lsn()) violated = true;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violated.load());
  EXPECT_GT(log.fsync_failures(), 0u);

  // Exact stats with the fast path: every sync commit counted once, and
  // the ones that did not piggyback each led at least one flush.
  constexpr std::uint64_t kCommits = kThreads * kCommitsPerThread;
  const GroupCommitStats gs = db.group_committer()->stats();
  EXPECT_EQ(gs.sync_commits, kCommits);
  EXPECT_LE(gs.batched, kCommits);
  EXPECT_LE(gs.sync_commits - gs.batched, gs.flushes);

  // Everything acknowledged survives a torn tail.
  log.tear_to_durable();
  const RecoveryResult r = db.recover_from_wal();
  EXPECT_EQ(r.committed_txns, kCommits);
  for (int k = 0; k < kThreads; ++k) {
    EXPECT_EQ(db.store().read_committed(k).value(), kCommitsPerThread);
  }
}

TEST(GroupCommit, ConcurrentCommitsAppendContiguousRunsCommitLast) {
  // Each commit reaches the log in one append: its after-images and its
  // commit record occupy consecutive LSNs, commit record last, however many
  // committers interleave.
  LogDevice log;
  Database db(wal_options(&log));
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 50;
  constexpr int kKeysPerTxn = 3;
  for (int k = 0; k < kThreads * kKeysPerTxn; ++k) db.load(k, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        Txn txn = db.begin(TxnKind::Update, EpsilonSpec::serializable());
        for (int j = 0; j < kKeysPerTxn; ++j) {
          ASSERT_TRUE(txn.add(t * kKeysPerTxn + j, 1).ok());
        }
        ASSERT_TRUE(txn.add(t * kKeysPerTxn, 1).ok());  // rewrite: one image
        ASSERT_TRUE(txn.commit().ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::vector<LogRecord> recs = log.records();
  std::size_t commits = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].type != LogRecordType::kCommit) continue;
    ++commits;
    ASSERT_GE(i, std::size_t(kKeysPerTxn));
    const TxnId txn = recs[i].txn;
    for (int j = 1; j <= kKeysPerTxn; ++j) {
      const LogRecord& w = recs[i - j];
      EXPECT_EQ(w.type, LogRecordType::kWrite);
      EXPECT_EQ(w.txn, txn);
      EXPECT_EQ(w.lsn, recs[i].lsn - std::uint64_t(j));
    }
    // The run is exactly this transaction's: the record before it is not.
    if (i > std::size_t(kKeysPerTxn)) {
      EXPECT_NE(recs[i - kKeysPerTxn - 1].txn, txn);
    }
  }
  EXPECT_EQ(commits, std::size_t(kThreads) * kCommitsPerThread);
  EXPECT_EQ(recs.size(), commits * (kKeysPerTxn + 1));
}

TEST(LogDevice, PrepareAppendsAfterImagesThenThePrepareRecord) {
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 10);
  db.load(2, 20);
  Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(t.add(1, 5).ok());
  ASSERT_TRUE(t.write(2, 7).ok());
  t.log_prepare();
  const std::vector<LogRecord> recs = log.records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].type, LogRecordType::kWrite);
  EXPECT_EQ(recs[0].key, 1u);
  EXPECT_EQ(recs[0].value, 15);
  EXPECT_EQ(recs[1].type, LogRecordType::kWrite);
  EXPECT_EQ(recs[1].key, 2u);
  EXPECT_EQ(recs[1].value, 7);
  EXPECT_EQ(recs[2].type, LogRecordType::kPrepare);
  EXPECT_EQ(recs[2].lsn, recs[0].lsn + 2);
  EXPECT_GE(log.durable_lsn(), recs[2].lsn);  // the vote is stable
  ASSERT_TRUE(t.commit().ok());
}

TEST(GroupCommit, CrashLosesOnlyCommitsNotYetDurable) {
  // Async commits return at append time and ride a later group flush.  A
  // crash in that window is allowed to lose exactly them -- never a sync
  // commit, never a previously flushed async commit.
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  db.load(2, 200);
  db.load(3, 300);
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(t.add(1, 11).ok());
    ASSERT_TRUE(t.commit().ok());  // sync: durable before returning
  }
  std::uint64_t async_lsn = 0;
  {
    TxnOptions topts;
    topts.wait = CommitWait::kAsync;
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable(),
                     kInvalidTxn, topts);
    ASSERT_TRUE(t.add(2, 22).ok());
    ASSERT_TRUE(t.commit().ok());  // acknowledged, not yet durable
    async_lsn = t.commit_lsn();
  }
  EXPECT_GT(async_lsn, log.durable_lsn());  // still in the volatile tail
  {
    TxnOptions topts;
    topts.wait = CommitWait::kAsync;
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable(),
                     kInvalidTxn, topts);
    ASSERT_TRUE(t.add(3, 33).ok());
    ASSERT_TRUE(t.commit().ok());
  }

  // Crash with the async tail unflushed: the torn log keeps the sync commit,
  // drops both async ones.  Recovery must agree.
  log.tear_to_durable();
  const RecoveryResult r = db.recover_from_wal();
  EXPECT_EQ(r.committed_txns, 1u);
  EXPECT_EQ(db.store().read_committed(1).value(), 111);
  EXPECT_FALSE(db.store().read_committed(2).ok());  // load alone not durable
  EXPECT_FALSE(db.store().read_committed(3).ok());
}

TEST(GroupCommit, FlushedAsyncCommitsSurviveTheCrash) {
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  {
    TxnOptions topts;
    topts.wait = CommitWait::kAsync;
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable(),
                     kInvalidTxn, topts);
    ASSERT_TRUE(t.add(1, 11).ok());
    ASSERT_TRUE(t.commit().ok());
    // The commit is volatile until a group flush covers it...
    EXPECT_LT(log.durable_lsn(), t.commit_lsn());
    db.group_committer()->flush(/*seed=*/1);
    // ...after which it is exactly as safe as a sync commit.
    EXPECT_GE(log.durable_lsn(), t.commit_lsn());
  }
  log.tear_to_durable();
  const RecoveryResult r = db.recover_from_wal();
  EXPECT_EQ(r.committed_txns, 1u);
  EXPECT_EQ(db.store().read_committed(1).value(), 111);
}

TEST(GroupCommit, AsyncBacklogForcesASelfFlush) {
  // Pure-async workloads must not defer durability forever: once
  // kAsyncFlushBacklog commits pile up with no sync leader in sight, the
  // next async committer flushes the group itself.
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 0);
  TxnOptions topts;
  topts.wait = CommitWait::kAsync;
  const std::uint64_t n = GroupCommitter::kAsyncFlushBacklog + 2;
  for (std::uint64_t i = 0; i < n; ++i) {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable(),
                     kInvalidTxn, topts);
    ASSERT_TRUE(t.add(1, 1).ok());
    ASSERT_TRUE(t.commit().ok());
  }
  const GroupCommitStats gs = db.group_committer()->stats();
  EXPECT_EQ(gs.async_commits, n);
  EXPECT_GE(gs.async_self_flushes, 1u);
  EXPECT_GE(log.durable_lsn(), 1u);
}

TEST(GroupCommit, RacingAsyncCommittersSelfFlushAndLoseOnlyTheUndurableTail) {
  // The async backlog is counted without the committer mutex, so racing
  // committers may cross kAsyncFlushBacklog together; one of them leads
  // each self-flush.  After a crash at the durable frontier, recovery must
  // hold exactly each thread's commits whose record that frontier covers.
  // Run under TSan via the tsan ctest label.
  LogDevice log;
  Database db(wal_options(&log));
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 200;
  for (int k = 0; k < kThreads; ++k) db.load(k, 0);
  std::vector<std::vector<std::uint64_t>> lsns(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxnOptions topts;
      topts.wait = CommitWait::kAsync;
      for (int i = 0; i < kCommitsPerThread; ++i) {
        Txn txn = db.begin(TxnKind::Update, EpsilonSpec::serializable(),
                           kInvalidTxn, topts);
        ASSERT_TRUE(txn.add(t, 1).ok());
        ASSERT_TRUE(txn.commit().ok());
        lsns[t].push_back(txn.commit_lsn());
      }
    });
  }
  for (auto& th : threads) th.join();

  const GroupCommitStats gs = db.group_committer()->stats();
  EXPECT_EQ(gs.async_commits, std::uint64_t{kThreads} * kCommitsPerThread);
  EXPECT_EQ(gs.sync_commits, 0u);
  EXPECT_GE(gs.async_self_flushes, 1u);
  const std::uint64_t durable = log.durable_lsn();
  log.tear_to_durable();
  (void)db.recover_from_wal();
  for (int t = 0; t < kThreads; ++t) {
    Value covered = 0;
    for (const std::uint64_t lsn : lsns[t]) covered += lsn <= durable ? 1 : 0;
    // Each commit's after-image is the key's running count, and loads are
    // not logged: a key with no durable commit is gone after recovery.
    const Result<Value> v = db.store().read_committed(Key(t));
    if (covered == 0) {
      EXPECT_FALSE(v.ok());
    } else {
      EXPECT_EQ(v.value_or(-1), covered);
    }
  }
}

// --- log-backed recoverable queues ----------------------------------------

TEST(QueueWal, CommittedEnqueueSurvivesTotalLoss) {
  LogDevice log;
  SimNetwork net(2, NetworkOptions{});
  Database db(wal_options(&log));
  QueueEndpoint endpoint(0, net);
  endpoint.attach_wal(&log);
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
    endpoint.enqueue(t, 1, "q", std::string("precious"));
    ASSERT_TRUE(t.commit().ok());
  }
  // Total loss of the endpoint; a fresh one restores from the log.
  QueueEndpoint reborn(0, net);
  reborn.attach_wal(&log);
  Store scratch;
  reborn.restore_from(recover_from_log(log, scratch));
  EXPECT_EQ(reborn.outbound_backlog(), 1u);  // will retransmit
}

TEST(QueueWal, UncommittedEnqueueDoesNotSurvive) {
  LogDevice log;
  SimNetwork net(2, NetworkOptions{});
  Database db(wal_options(&log));
  QueueEndpoint endpoint(0, net);
  endpoint.attach_wal(&log);
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
    endpoint.enqueue(t, 1, "q", std::string("vapor"));
    t.abort();
  }
  Store scratch;
  const RecoveryResult r = recover_from_log(log, scratch);
  EXPECT_TRUE(r.outbound.empty());
}

TEST(QueueWal, DeliveredUnconsumedMessageSurvives) {
  LogDevice log;
  SimNetwork net(2, NetworkOptions{});
  QueueEndpoint endpoint(1, net);
  endpoint.attach_wal(&log);
  Message qdata;
  qdata.from = 0;
  qdata.to = 1;
  qdata.type = "qdata";
  qdata.gtid = (std::uint64_t(0) << 40) | 7;
  qdata.payload = std::make_pair(std::string("q"), std::string("m"));
  ASSERT_TRUE(endpoint.deliver(qdata));

  QueueEndpoint reborn(1, net);
  reborn.attach_wal(&log);
  Store scratch;
  reborn.restore_from(recover_from_log(log, scratch));
  EXPECT_EQ(reborn.depth("q"), 1u);
  // Dedupe set restored: the sender's retransmission is recognized.
  EXPECT_FALSE(reborn.deliver(qdata));
}

TEST(QueueWal, ConsumedMessageDoesNotComeBack) {
  LogDevice log;
  SimNetwork net(2, NetworkOptions{});
  Database db(wal_options(&log));
  QueueEndpoint endpoint(1, net);
  endpoint.attach_wal(&log);
  Message qdata;
  qdata.from = 0;
  qdata.to = 1;
  qdata.gtid = 9;
  qdata.payload = std::make_pair(std::string("q"), std::string("m"));
  ASSERT_TRUE(endpoint.deliver(qdata));
  {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
    ASSERT_TRUE(endpoint.try_dequeue(t, "q").has_value());
    ASSERT_TRUE(t.commit().ok());
  }
  QueueEndpoint reborn(1, net);
  Store scratch;
  reborn.restore_from(recover_from_log(log, scratch));
  EXPECT_EQ(reborn.depth("q"), 0u);  // exactly-once holds across the crash
}

TEST(QueueWal, ClaimedButUncommittedConsumeComesBack) {
  LogDevice log;
  SimNetwork net(2, NetworkOptions{});
  Database db(wal_options(&log));
  QueueEndpoint endpoint(1, net);
  endpoint.attach_wal(&log);
  Message qdata;
  qdata.from = 0;
  qdata.gtid = 10;
  qdata.payload = std::make_pair(std::string("q"), std::string("m"));
  ASSERT_TRUE(endpoint.deliver(qdata));
  Txn t = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
  ASSERT_TRUE(endpoint.try_dequeue(t, "q").has_value());
  // Crash with the claim open (no commit record).
  QueueEndpoint reborn(1, net);
  Store scratch;
  reborn.restore_from(recover_from_log(log, scratch));
  EXPECT_EQ(reborn.depth("q"), 1u);  // redelivered
  t.abort();
}

// --- chopped-transaction continuations -------------------------------------

Continuation two_piece_continuation(Key to, Value amount) {
  Continuation c;
  c.type_index = 3;
  c.piece_count = 2;
  c.first_op = 1;
  c.ops = {ContinuationOp{/*Add*/ 1, to, amount}};
  return c;
}

/// Commit a one-key update as piece `piece` of `continuation` (piece 0
/// passes kInvalidTxn and opens a continuation under its own id).  Returns
/// the committed transaction's id.
TxnId commit_piece(Database& db, TxnId continuation, std::uint32_t piece,
                   Key key, Value delta, CommitWait wait,
                   std::uint64_t* lsn = nullptr) {
  Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable(), kInvalidTxn,
                   TxnOptions{wait});
  EXPECT_TRUE(t.add(key, delta).ok());
  if (piece == 0) {
    t.log_piece(t.id(), 0,
                encode_continuation(two_piece_continuation(key + 1, -delta)));
  } else {
    t.log_piece(continuation, piece);
  }
  EXPECT_TRUE(t.commit().ok());
  if (lsn != nullptr) *lsn = t.commit_lsn();
  return t.id();
}

/// A cross-site chain's payload after its first hop: two pieces left at
/// sites 1 and 2, whole and fractional numbers, the dynamic policy.
CrossSiteContinuation two_hops_left() {
  CrossSiteContinuation c;
  c.gtid = 7;
  c.origin = 0;
  c.pieces = {CrossSitePiece{1, {ContinuationOp{/*Add*/ 1, 11, 2.5},
                                 ContinuationOp{/*Read*/ 0, 12, 0}}},
              CrossSitePiece{2, {ContinuationOp{/*Write*/ 2, 1'019'999, -3}}}};
  c.policy = 1;
  c.limit = 10000;
  c.done = {0.75};
  return c;
}

TEST(Continuation, EncodingRoundTrips) {
  Continuation c = two_piece_continuation(42, 17.5);
  c.ops.push_back(ContinuationOp{/*Write*/ 2, 43, -3});
  c.piece_count = 3;
  const std::optional<Continuation> back =
      decode_continuation(encode_continuation(c));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, c);

  // The cross-site payload, at each hop of its chain.
  CrossSiteContinuation chain = two_hops_left();
  chain.gtid = 0x1234'5678'9abc;
  chain.limit = kInfiniteLimit;
  for (const CrossSiteContinuation& hop : {two_hops_left(), chain}) {
    const std::optional<CrossSiteContinuation> hop_back =
        decode_cross_site(encode_cross_site(hop));
    ASSERT_TRUE(hop_back.has_value());
    EXPECT_EQ(*hop_back, hop);
  }
  chain.done.push_back(-1);
  chain.pieces.erase(chain.pieces.begin());
  EXPECT_EQ(decode_cross_site(encode_cross_site(chain)), chain);
  // A two-site transfer's one hop carries only what is left: LA's Add,
  // Limit_t and piece 1's Z_p.
  CrossSiteContinuation transfer;
  transfer.gtid = 1;
  transfer.pieces = {CrossSitePiece{1, {ContinuationOp{/*Add*/ 1, 2, 100}}}};
  transfer.limit = 10000;
  transfer.done = {0};
  const std::string transfer_bytes = encode_cross_site(transfer);
  EXPECT_EQ(transfer_bytes.size(), 17u);
  EXPECT_EQ(decode_cross_site(transfer_bytes), transfer);
}

TEST(Continuation, ATransfersContinuationNeedsNoHeapAllocation) {
  // A banking transfer's piece 2: one Add of a whole amount to an account
  // key.  Its payload fits std::string's inline buffer.
  const std::string bytes =
      encode_continuation(two_piece_continuation(1'019'999, -50));
  EXPECT_LE(bytes.size(), std::string().capacity());
}

TEST(Continuation, TruncatedOrCorruptPayloadIsRejected) {
  Continuation c = two_piece_continuation(42, 17.5);
  c.ops.push_back(ContinuationOp{/*Read*/ 0, 43, 0});
  const std::string bytes = encode_continuation(c);
  // Every strict prefix -- a payload torn anywhere -- and a padded one.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(decode_continuation(std::string_view(bytes).substr(0, n)))
        << "prefix of " << n << " bytes";
  }
  EXPECT_FALSE(decode_continuation(bytes + '\0'));
  // An op type past AccessType::Write, and a single-piece "continuation".
  Continuation bad_op = c;
  bad_op.ops[0].type = 3;
  EXPECT_FALSE(decode_continuation(encode_continuation(bad_op)));
  // An op count larger than the bytes that follow could ever hold.
  std::string huge_count = bytes;
  huge_count[3] = char(0x7f);
  EXPECT_FALSE(decode_continuation(huge_count));
  Continuation one_piece = c;
  one_piece.piece_count = 1;
  EXPECT_FALSE(decode_continuation(encode_continuation(one_piece)));

  // The cross-site payload: every strict prefix, and a padded one.
  const CrossSiteContinuation hop = two_hops_left();
  const std::string hop_bytes = encode_cross_site(hop);
  for (std::size_t n = 0; n < hop_bytes.size(); ++n) {
    EXPECT_FALSE(decode_cross_site(std::string_view(hop_bytes).substr(0, n)))
        << "prefix of " << n << " bytes";
  }
  EXPECT_FALSE(decode_cross_site(hop_bytes + '\0'));
  // An op type past AccessType::Write, and a policy past DistPolicy's last.
  CrossSiteContinuation bad_hop = hop;
  bad_hop.pieces[1].ops[0].type = 3;
  EXPECT_FALSE(decode_cross_site(encode_cross_site(bad_hop)));
  bad_hop = hop;
  bad_hop.policy = 2;
  EXPECT_FALSE(decode_cross_site(encode_cross_site(bad_hop)));
  // A piece count, an op count or a done count larger than the bytes left.
  // gtid, origin and every site and count here take one byte each.
  const std::size_t kPieceCount = 2, kFirstOpCount = 4;
  for (const std::size_t at : {kPieceCount, kFirstOpCount}) {
    std::string huge = hop_bytes;
    huge[at] = char(0x7f);
    EXPECT_FALSE(decode_cross_site(huge)) << "count at byte " << at;
  }
  bad_hop = hop;
  bad_hop.done.assign(0x7f, 0);
  std::string huge_done = encode_cross_site(bad_hop);
  huge_done.resize(huge_done.size() - 2 * 0x7e);  // one Z_p left of 127
  EXPECT_FALSE(decode_cross_site(huge_done));
  // No piece left, a piece without ops, no committed piece.
  for (auto breaks : {+[](CrossSiteContinuation& c) { c.pieces.clear(); },
                      +[](CrossSiteContinuation& c) { c.pieces[0].ops.clear(); },
                      +[](CrossSiteContinuation& c) { c.done.clear(); }}) {
    bad_hop = hop;
    breaks(bad_hop);
    EXPECT_FALSE(decode_cross_site(encode_cross_site(bad_hop)));
  }

  // Recovery counts the bad payload and resumes nothing from it.
  LogDevice log;
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn = 7;
  commit.key = 7;
  commit.payload = bytes.substr(0, bytes.size() - 1);
  log.append(commit);
  Store store;
  const RecoveryResult r = recover_from_log(log, store);
  EXPECT_TRUE(r.continuations.empty());
  EXPECT_EQ(r.rejected_continuations, 1u);
}

TEST(Continuation, RecoveryListsOnlyUnfinishedOriginals) {
  LogDevice log;
  Database db(wal_options(&log));
  for (Key k = 1; k <= 4; ++k) db.load(k, 100);
  const TxnId a = commit_piece(db, kInvalidTxn, 0, 1, -5, CommitWait::kSync);
  const TxnId b = commit_piece(db, kInvalidTxn, 0, 3, -6, CommitWait::kSync);
  (void)commit_piece(db, b, 1, 4, +6, CommitWait::kSync);
  const RecoveryResult r = db.recover_from_wal();
  ASSERT_EQ(r.continuations.size(), 1u);
  const OpenContinuation& open = r.continuations[0];
  EXPECT_EQ(open.id, a);
  EXPECT_EQ(open.cont, two_piece_continuation(2, 5));
  ASSERT_EQ(open.done.size(), 1u);
  EXPECT_EQ(open.done[0].first, 0u);
  // The Database holds them for the executor until claimed, once.
  EXPECT_EQ(db.take_continuations().size(), 1u);
  EXPECT_TRUE(db.take_continuations().empty());
}

TEST(Continuation, AsyncPieceReadByAQueryIsDurableWhenTheQueryReturns) {
  // Piece 1 commits kAsync; a query reads its version and commits.  The
  // query's commit record follows the version's in the log, so its flush
  // covers piece 1: no query returns a value a crash can erase.
  LogDevice log;
  Database db(wal_options(&log));
  db.load(1, 100);
  std::uint64_t piece_lsn = 0;
  (void)commit_piece(db, kInvalidTxn, 0, 1, -5, CommitWait::kAsync,
                     &piece_lsn);
  EXPECT_LT(log.durable_lsn(), piece_lsn);  // still volatile
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::serializable());
  const Result<Value> v = q.read(1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 95);  // the async piece's version
  ASSERT_TRUE(q.commit().ok());
  EXPECT_GE(log.durable_lsn(), piece_lsn);
}

TEST(Continuation, CheckpointKeepsOpenContinuationsAndDropsFinishedOnes) {
  LogDevice log;
  Database db(wal_options(&log));
  for (Key k = 1; k <= 4; ++k) db.load(k, 100);
  db.checkpoint();
  // B opens and finishes; A opens after it and stays open.
  const TxnId b = commit_piece(db, kInvalidTxn, 0, 3, -6, CommitWait::kSync);
  (void)commit_piece(db, b, 1, 4, +6, CommitWait::kSync);
  std::uint64_t a_lsn = 0;
  const TxnId a =
      commit_piece(db, kInvalidTxn, 0, 1, -5, CommitWait::kSync, &a_lsn);
  db.checkpoint();

  const std::vector<LogRecord> kept = log.records();
  ASSERT_FALSE(kept.empty());
  EXPECT_EQ(kept.front().lsn, a_lsn);  // A's opening record survives...
  for (const LogRecord& r : kept) {   // ...and nothing of finished B does
    EXPECT_FALSE(r.type == LogRecordType::kCommit && r.key == b);
  }
  RecoveryResult r = db.recover_from_wal();
  ASSERT_EQ(r.continuations.size(), 1u);
  EXPECT_EQ(r.continuations[0].id, a);
  EXPECT_EQ(db.store().read_committed(1).value(), 95);
  EXPECT_EQ(db.store().read_committed(3).value(), 94);

  // Once A finishes, the next checkpoint truncates down to itself.
  (void)commit_piece(db, a, 1, 2, +5, CommitWait::kSync);
  const std::uint64_t before = log.next_lsn();
  db.checkpoint();
  EXPECT_GE(log.records().front().lsn, before);
  r = db.recover_from_wal();
  EXPECT_TRUE(r.continuations.empty());
  EXPECT_EQ(db.store().read_committed(2).value(), 105);
}

// --- randomized crash-replay property --------------------------------------

class WalCrashProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalCrashProperty, RecoveryIsAlwaysACommittedPrefixState) {
  Rng rng(GetParam());
  LogDevice log;
  Database db(wal_options(&log));
  constexpr int kAccounts = 6;
  constexpr Value kInitial = 1000;
  for (int i = 0; i < kAccounts; ++i) db.load(i, kInitial);
  db.checkpoint();

  // Run random transfers; remember how many committed.
  int committed = 0;
  for (int i = 0; i < 40; ++i) {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    const Key a = rng.uniform(kAccounts);
    Key b = rng.uniform(kAccounts);
    while (b == a) b = rng.uniform(kAccounts);
    const Value d = 1 + Value(rng.uniform(50));
    ASSERT_TRUE(t.add(a, -d).ok());
    ASSERT_TRUE(t.add(b, +d).ok());
    if (rng.chance(0.7)) {
      ASSERT_TRUE(t.commit().ok());
      ++committed;
    } else {
      t.abort();
    }
    if (rng.chance(0.2)) db.checkpoint();
  }

  // Crash + recover: conservation must hold exactly (atomicity: both legs
  // of every committed transfer, neither leg of any aborted one).  Note the
  // interleaved checkpoints truncate the log, so r.committed_txns counts
  // only post-truncation commits; the conservation check below is the
  // end-to-end property.
  (void)committed;
  const RecoveryResult r = db.recover_from_wal();
  (void)r;
  Value sum = 0;
  for (int i = 0; i < kAccounts; ++i) {
    sum += db.store().read_committed(i).value_or(-1e18);
  }
  EXPECT_EQ(sum, kInitial * kAccounts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalCrashProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace atp
