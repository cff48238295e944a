#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/store.h"

namespace atp {
namespace {
/// The owner's view of `key` for `txn`, or a sentinel read on error.
OwnedRead owned(const Store& store, TxnId txn, Key key) {
  return store.read_for_update(txn, key).value_or(OwnedRead{-1, 0});
}

/// Trace stamp of the newest committed version of `key`.
std::uint64_t committed_stamp(const Store& store, Key key) {
  return store.read_latest_versioned(key).value().seq + 1;
}


TEST(Store, LoadAndReadCommitted) {
  Store store;
  store.load(1, 100);
  store.load(2, 200);
  EXPECT_EQ(store.read_committed(1).value(), 100);
  EXPECT_EQ(store.read_committed(2).value(), 200);
  EXPECT_EQ(store.size(), 2u);
}

TEST(Store, MissingKeyIsNotFound) {
  Store store;
  EXPECT_EQ(store.read_committed(99).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.read_for_update(7, 99).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(store.size(), 0u);
}


TEST(Store, WriteStagesDirtyValue) {
  Store store;
  store.load(1, 100);
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  EXPECT_EQ(store.read_committed(1).value(), 100);  // committed unchanged
  // The owner sees its staged write; anyone else sees only the committed
  // version, never the dirty value.
  EXPECT_EQ(owned(store, 7, 1).value, 150);
  EXPECT_EQ(owned(store, 7, 1).trace_version, Store::kOwnWrite);
  EXPECT_EQ(owned(store, 8, 1).value, 100);
  EXPECT_EQ(owned(store, 8, 1).trace_version, committed_stamp(store, 1));
  EXPECT_EQ(store.stage_add(8, 1, 1).status().code(),
            ErrorCode::kFailedPrecondition);  // the slot is txn 7's
}

TEST(Store, CommitPromotesDirty) {
  Store store;
  store.load(1, 100);
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  store.commit_key(7, 1);
  EXPECT_EQ(store.read_committed(1).value(), 150);
  // No staged write left: the former owner reads the committed version.
  EXPECT_EQ(owned(store, 7, 1).value, 150);
  EXPECT_EQ(owned(store, 7, 1).trace_version, committed_stamp(store, 1));
}

TEST(Store, AbortDiscardsDirty) {
  Store store;
  store.load(1, 100);
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  store.abort_key(7, 1);
  EXPECT_EQ(store.read_committed(1).value(), 100);
  EXPECT_EQ(owned(store, 7, 1).value, 100);
  EXPECT_NE(owned(store, 7, 1).trace_version, Store::kOwnWrite);
}

TEST(Store, SecondWriterIsRejected) {
  Store store;
  store.load(1, 100);
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  const Status s = store.write(8, 1, 160);
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
  // Original dirty value intact.
  EXPECT_EQ(owned(store, 7, 1).value, 150);
}

TEST(Store, SameWriterMayRewrite) {
  Store store;
  store.load(1, 100);
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  ASSERT_TRUE(store.write(7, 1, 170).ok());
  EXPECT_EQ(owned(store, 7, 1).value, 170);
  EXPECT_EQ(store.read_committed(1).value(), 100);
}

TEST(Store, ForeignCommitAndAbortAreNoOps) {
  Store store;
  store.load(1, 100);
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  store.commit_key(8, 1);  // not the owner
  EXPECT_EQ(store.read_committed(1).value(), 100);
  store.abort_key(8, 1);  // not the owner
  EXPECT_EQ(owned(store, 7, 1).value, 150);
  EXPECT_EQ(owned(store, 7, 1).trace_version, Store::kOwnWrite);
}

TEST(Store, WriteToUnknownKeyCreatesCell) {
  Store store;
  ASSERT_TRUE(store.write(7, 42, 5).ok());
  EXPECT_EQ(owned(store, 7, 42).value, 5);
  store.commit_key(7, 42);
  EXPECT_EQ(store.read_committed(42).value(), 5);
}

TEST(Store, SnapshotSeesOnlyCommitted) {
  Store store;
  store.load(1, 100);
  store.load(2, 200);
  ASSERT_TRUE(store.write(7, 1, 999).ok());
  const auto snap = store.snapshot_committed();
  EXPECT_EQ(snap.at(1), 100);
  EXPECT_EQ(snap.at(2), 200);
}

TEST(Store, CrashDropsAllDirty) {
  Store store;
  store.load(1, 100);
  store.load(2, 200);
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  ASSERT_TRUE(store.write(8, 2, 250).ok());
  store.crash();
  EXPECT_EQ(owned(store, 7, 1).value, 100);
  EXPECT_EQ(owned(store, 8, 2).value, 200);
  EXPECT_EQ(owned(store, 7, 1).trace_version, committed_stamp(store, 1));
  EXPECT_EQ(owned(store, 8, 2).trace_version, committed_stamp(store, 2));
}

TEST(Store, CrashSparesPreparedSurvivors) {
  Store store;
  store.load(1, 100);
  store.load(2, 200);
  ASSERT_TRUE(store.write(7, 1, 150).ok());  // prepared
  ASSERT_TRUE(store.write(8, 2, 250).ok());  // not prepared
  const std::unordered_set<TxnId> survivors{7};
  store.crash(&survivors);
  EXPECT_EQ(owned(store, 7, 1).value, 150);  // survived
  EXPECT_EQ(owned(store, 7, 1).trace_version, Store::kOwnWrite);
  EXPECT_EQ(owned(store, 8, 2).value, 200);  // lost
  EXPECT_EQ(owned(store, 8, 2).trace_version, committed_stamp(store, 2));
}

TEST(Store, LoadOverDirtyCellIsRefused) {
  // Regression: Store::load used to reset dirty_owner on an existing cell,
  // silently orphaning the in-flight writer -- its later commit_key became a
  // no-op and the update vanished.  Bulk-load over a dirty cell must fail
  // and leave the writer's staged state intact.
  Store store;
  store.load(1, 100);
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  // Refused: txn 7 is mid-flight on this key.
  EXPECT_EQ(store.load(1, 500).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(owned(store, 7, 1).value, 150);
  EXPECT_EQ(owned(store, 7, 1).trace_version, Store::kOwnWrite);
  store.commit_key(7, 1);
  EXPECT_EQ(store.read_committed(1).value(), 150);  // the write survived
}

// --- multi-version store ---------------------------------------------------

TEST(Mvcc, SnapshotReadIsIsolatedFromLaterCommits) {
  Store store;
  store.load(1, 100);
  const std::uint64_t snap = store.snapshot_acquire();
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  store.commit_key(7, 1);
  ASSERT_TRUE(store.write(8, 1, 200).ok());
  store.commit_key(8, 1);
  // The snapshot keeps resolving at the version it pinned; the frontier
  // moved on independently.
  EXPECT_EQ(store.read_snapshot(1, snap).value().value, 100);
  const VersionRead latest = store.read_latest_versioned(1).value();
  EXPECT_EQ(latest.value, 200);
  EXPECT_GT(latest.seq, snap);
  store.snapshot_release(snap);
}

TEST(Mvcc, DepthCapBoundsRetainedVersionsAndAgesOutOldSnapshots) {
  Store store;
  store.load(1, 0);
  const std::uint64_t snap = store.snapshot_acquire();  // pins the chain
  for (int i = 1; i <= int(Store::kVersionDepth) + 8; ++i) {
    ASSERT_TRUE(store.write(TxnId(i), 1, i).ok());
    store.commit_key(TxnId(i), 1);
  }
  // The ring overwrites its oldest slot when full regardless of snapshots:
  // retention is capped at kVersionDepth, never unbounded.
  EXPECT_EQ(store.versions_retained(1), Store::kVersionDepth);
  // The pinned snapshot's version was among those overwritten: the read is
  // refused as "snapshot too old" (caller retries on a fresh snapshot), not
  // answered with a wrong newer version.
  EXPECT_EQ(store.read_snapshot(1, snap).status().code(), ErrorCode::kAborted);
  EXPECT_GE(store.mvcc_stats().snapshot_too_old, 1u);
  store.snapshot_release(snap);
}

TEST(Mvcc, EpochGcReclaimsVersionsNoSnapshotCanReach) {
  Store store;
  store.load(1, 0);
  const std::uint64_t snap = store.snapshot_acquire();
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store.write(TxnId(i), 1, i * 10).ok());
    store.commit_key(TxnId(i), 1);
  }
  // The live snapshot pins the whole chain: load + 5 commits all retained.
  EXPECT_EQ(store.versions_retained(1), 6u);
  store.snapshot_release(snap);
  // Next publication runs epoch GC on the cell; with no live snapshot every
  // version with a visible successor is unreachable -- only the newest stays.
  ASSERT_TRUE(store.write(TxnId(9), 1, 999).ok());
  store.commit_key(TxnId(9), 1);
  EXPECT_EQ(store.versions_retained(1), 1u);
  EXPECT_GE(store.mvcc_stats().gc_reclaimed, 5u);
  EXPECT_EQ(store.read_latest_versioned(1).value().value, 999);
}

TEST(Mvcc, ConcurrentSnapshotReadersNeverSeeTornVersions) {
  // Seqlock validation under contention: one committer climbs a single key
  // while readers take snapshots and resolve against it.  Every successful
  // read must be internally consistent (value matches the version's seq) and
  // must respect its snapshot; the only acceptable failure is the ring aging
  // the snapshot out.  Run under TSan via the tsan ctest label.
  Store store;
  store.load(1, 0);  // version seq 0, value 0: value == seq * 100 throughout
  constexpr int kCommits = 2000;
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int i = 1; i <= kCommits; ++i) {
      if (!store.write(1, 1, Value(i) * 100).ok()) failed = true;
      store.commit_key(1, 1);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const std::uint64_t snap = store.snapshot_acquire();
        const auto r = store.read_snapshot(1, snap);
        if (r.ok()) {
          if (r.value().seq > snap) failed = true;
          if (r.value().value != Value(r.value().seq) * 100) failed = true;
        } else if (r.status().code() != ErrorCode::kAborted) {
          failed = true;
        }
        store.snapshot_release(snap);
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(store.read_latest_versioned(1).value().value,
            Value(kCommits) * 100);
  EXPECT_EQ(store.mvcc_stats().live_snapshots, 0u);
}

// --- one-lookup update and query paths --------------------------------------

TEST(Store, StageAddOnCommittedKeyReadsTheNewestVersion) {
  Store store;
  store.load(1, 100);
  ASSERT_TRUE(store.write(3, 1, 120).ok());
  store.commit_key(3, 1);
  const VersionRead newest = store.read_latest_versioned(1).value();
  const Result<OwnedRead> base = store.stage_add(7, 1, 5);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.value().value, 120);
  EXPECT_EQ(base.value().trace_version, newest.seq + 1);
  EXPECT_EQ(owned(store, 7, 1).value, 125);
  EXPECT_EQ(owned(store, 7, 1).trace_version, Store::kOwnWrite);
  EXPECT_EQ(store.read_committed(1).value(), 120);  // staged, not published
  store.commit_key(7, 1);
  EXPECT_EQ(store.read_committed(1).value(), 125);
}

TEST(Store, StageAddOnItsOwnStagedKeyAccumulates) {
  Store store;
  store.load(1, 100);
  ASSERT_EQ(store.stage_add(7, 1, 5).value().value, 100);
  const Result<OwnedRead> again = store.stage_add(7, 1, 10);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().value, 105);  // our staged value, not committed
  EXPECT_EQ(again.value().trace_version, Store::kOwnWrite);
  EXPECT_EQ(owned(store, 7, 1).value, 115);
  store.commit_key(7, 1);
  EXPECT_EQ(store.read_committed(1).value(), 115);
}

TEST(Store, StageAddUnderAForeignDirtyOwnerIsRefusedAndTouchesNothing) {
  Store store;
  store.load(1, 100);
  ASSERT_TRUE(store.write(7, 1, 150).ok());
  EXPECT_EQ(store.stage_add(8, 1, 5).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(owned(store, 7, 1).value, 150);
  EXPECT_EQ(owned(store, 7, 1).trace_version, Store::kOwnWrite);
  EXPECT_EQ(store.read_committed(1).value(), 100);
  store.commit_key(8, 1);  // 8 staged nothing: no-op
  EXPECT_EQ(store.read_committed(1).value(), 100);
  store.commit_key(7, 1);
  EXPECT_EQ(store.read_committed(1).value(), 150);
}

TEST(Store, StageAddOnAMissingKeyIsNotFoundAndCreatesNoCell) {
  Store store;
  EXPECT_EQ(store.stage_add(7, 99, 5).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.size(), 0u);
  // A cell whose only writer aborted holds no value to add to either, and
  // the refused add stages nothing on it.
  ASSERT_TRUE(store.write(7, 42, 5).ok());
  store.abort_key(7, 42);
  EXPECT_EQ(store.stage_add(8, 42, 1).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.read_for_update(8, 42).status().code(),
            ErrorCode::kNotFound);
  store.commit_key(8, 42);
  EXPECT_EQ(store.read_committed(42).status().code(), ErrorCode::kNotFound);
}

TEST(Mvcc, ReadSnapshotAndLatestMatchesTheTwoSeparateReads) {
  Store store;
  store.load(1, 100);
  store.load(2, 200);
  const std::uint64_t snap = store.snapshot_acquire();
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(store.write(TxnId(i), 1, 100 + i).ok());
    store.commit_key(TxnId(i), 1);
  }
  for (const Key k : {Key{1}, Key{2}}) {
    const SnapshotAndLatest both =
        store.read_snapshot_and_latest(k, snap).value();
    const VersionRead at_snap = store.read_snapshot(k, snap).value();
    const VersionRead newest = store.read_latest_versioned(k).value();
    EXPECT_EQ(both.snap.value, at_snap.value);
    EXPECT_EQ(both.snap.seq, at_snap.seq);
    EXPECT_EQ(both.latest.value, newest.value);
    EXPECT_EQ(both.latest.seq, newest.seq);
  }
  EXPECT_EQ(store.read_snapshot_and_latest(99, snap).status().code(),
            ErrorCode::kNotFound);
  // Age the snapshot out of key 1's ring: both paths refuse it as too old.
  for (int i = 4; i <= int(Store::kVersionDepth) + 4; ++i) {
    ASSERT_TRUE(store.write(TxnId(i), 1, 100 + i).ok());
    store.commit_key(TxnId(i), 1);
  }
  EXPECT_EQ(store.read_snapshot(1, snap).status().code(),
            ErrorCode::kAborted);
  EXPECT_EQ(store.read_snapshot_and_latest(1, snap).status().code(),
            ErrorCode::kAborted);
  store.snapshot_release(snap);
}

TEST(Mvcc, SnapshotAndLatestReadersRaceStageAddWriters) {
  // Writers run the update path's store calls (stage_add + commit_publish)
  // on disjoint keys while readers run the DC query read.  Each read's two
  // versions must be ordered: the snapshot one at or below the snapshot, the
  // newest one no older than it.  Run under TSan via the tsan ctest label.
  Store store;
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 8;
  constexpr int kRounds = 320;  // a multiple of kKeysPerWriter
  for (Key k = 0; k < Key(kWriters * kKeysPerWriter); ++k) store.load(k, 0);
  std::atomic<bool> failed{false};
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      TxnId txn = TxnId(w) * 1000000 + 1;
      for (int r = 0; r < kRounds; ++r, ++txn) {
        const Key k = Key(w * kKeysPerWriter + r % kKeysPerWriter);
        if (!store.stage_add(txn, k, 1).ok()) failed = true;
        const Key keys[] = {k};
        (void)store.commit_publish(txn, keys);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int rd = 0; rd < 2; ++rd) {
    threads.emplace_back([&, rd] {
      Key k = Key(rd);
      while (writers_left.load() > 0) {
        const std::uint64_t snap = store.snapshot_acquire();
        k = (k + 7) % Key(kWriters * kKeysPerWriter);
        const auto r = store.read_snapshot_and_latest(k, snap);
        if (r.ok()) {
          if (r.value().snap.seq > snap) failed = true;
          if (r.value().latest.seq < r.value().snap.seq) failed = true;
        } else if (r.status().code() != ErrorCode::kAborted) {
          failed = true;
        }
        store.snapshot_release(snap);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  // Every add landed: each key took kRounds / kKeysPerWriter increments.
  for (Key k = 0; k < Key(kWriters * kKeysPerWriter); ++k) {
    EXPECT_EQ(store.read_committed(k).value(), kRounds / kKeysPerWriter);
  }
}

TEST(Store, ConcurrentDisjointWritersAreSafe) {
  Store store;
  constexpr int kKeys = 256;
  for (int k = 0; k < kKeys; ++k) store.load(k, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int k = t; k < kKeys; k += 4) {
        ASSERT_TRUE(store.write(TxnId(t + 1), k, k * 10).ok());
        store.commit_key(TxnId(t + 1), k);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(store.read_committed(k).value(), k * 10);
  }
}

}  // namespace
}  // namespace atp
