// Direct unit tests for the divergence-control resolver (the component the
// sched_dc integration tests exercise through the full stack).  Since the
// multi-version store, DC queries never enter the lock manager: every read
// goes through read_fresh, which charges import fuzziness from version
// timestamps (|v_latest - v_snapshot|) and falls back to the snapshot
// version when the budget refuses.
#include <gtest/gtest.h>

#include <unordered_map>

#include "sched/dc_resolver.h"

namespace atp {
namespace {

class DcResolverTest : public ::testing::Test {
 protected:
  EtRegistry reg_;
  Store store_;
  DcResolver resolver_{reg_, store_};

  TxnId query(Value import_limit) {
    return reg_.begin(TxnKind::Query, EpsilonSpec::importing(import_limit));
  }
  TxnId update(Value export_limit) {
    return reg_.begin(TxnKind::Update, EpsilonSpec::exporting(export_limit));
  }

  /// Commit `value` onto `key` through the store's transactional path.
  void commit_value(Key key, Value value) {
    const TxnId u = update(0);
    ASSERT_TRUE(store_.write(u, key, value).ok());
    store_.commit_key(u, key);
    reg_.end_commit(u);
  }
};

TEST_F(DcResolverTest, FreshKeyReadsForFree) {
  store_.load(1, 100);
  const std::uint64_t snap = store_.snapshot_acquire();
  const TxnId q = query(100);
  std::unordered_map<Key, Value> charged;
  Result<VersionRead> v = resolver_.read_fresh(q, 1, snap, charged);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().value, 100);
  EXPECT_EQ(reg_.fuzziness_of(q), 0);  // snapshot == latest: nothing charged
  store_.snapshot_release(snap);
}

TEST_F(DcResolverTest, StaleKeyChargesVersionDistanceAndReadsFresh) {
  store_.load(1, 100);
  const std::uint64_t snap = store_.snapshot_acquire();
  const TxnId q = query(100);
  commit_value(1, 140);  // the key moves after the query's snapshot
  std::unordered_map<Key, Value> charged;
  Result<VersionRead> v = resolver_.read_fresh(q, 1, snap, charged);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().value, 140);        // freshest version
  EXPECT_EQ(reg_.fuzziness_of(q), 40);    // |140 - 100| imported
  EXPECT_EQ(charged[1], 40);
  store_.snapshot_release(snap);
}

TEST_F(DcResolverTest, BudgetRefusalFallsBackToSnapshotVersion) {
  store_.load(1, 100);
  const std::uint64_t snap = store_.snapshot_acquire();
  const TxnId q = query(10);  // cannot absorb a delta of 40
  commit_value(1, 140);
  std::unordered_map<Key, Value> charged;
  Result<VersionRead> v = resolver_.read_fresh(q, 1, snap, charged);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().value, 100);      // consistent snapshot version
  EXPECT_EQ(reg_.fuzziness_of(q), 0);   // and it costs nothing
  store_.snapshot_release(snap);
}

TEST_F(DcResolverTest, RereadChargesOnlyTheIncrease) {
  store_.load(1, 100);
  const std::uint64_t snap = store_.snapshot_acquire();
  const TxnId q = query(100);
  std::unordered_map<Key, Value> charged;

  commit_value(1, 120);
  Result<VersionRead> v1 = resolver_.read_fresh(q, 1, snap, charged);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1.value().value, 120);
  EXPECT_EQ(reg_.fuzziness_of(q), 20);

  commit_value(1, 150);  // moves further: divergence now 50, 20 already paid
  Result<VersionRead> v2 = resolver_.read_fresh(q, 1, snap, charged);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value().value, 150);
  EXPECT_EQ(reg_.fuzziness_of(q), 50);  // charged the increase only
  EXPECT_EQ(charged[1], 50);
  store_.snapshot_release(snap);
}

TEST_F(DcResolverTest, AlreadyPaidDivergenceReadsFreshWithoutNewCharge) {
  store_.load(1, 100);
  const std::uint64_t snap = store_.snapshot_acquire();
  const TxnId q = query(100);
  std::unordered_map<Key, Value> charged;
  commit_value(1, 140);
  ASSERT_TRUE(resolver_.read_fresh(q, 1, snap, charged).ok());
  ASSERT_EQ(reg_.fuzziness_of(q), 40);
  // Second read with the key unchanged: the paid divergence covers it.
  Result<VersionRead> v = resolver_.read_fresh(q, 1, snap, charged);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().value, 140);
  EXPECT_EQ(reg_.fuzziness_of(q), 40);  // no double charge
  store_.snapshot_release(snap);
}

TEST_F(DcResolverTest, MissingKeyIsNotFound) {
  const std::uint64_t snap = store_.snapshot_acquire();
  const TxnId q = query(100);
  std::unordered_map<Key, Value> charged;
  Result<VersionRead> v = resolver_.read_fresh(q, 99, snap, charged);
  EXPECT_EQ(v.status().code(), ErrorCode::kNotFound);
  store_.snapshot_release(snap);
}

TEST_F(DcResolverTest, KeyBornAfterSnapshotAbortsAsSnapshotTooOld) {
  const std::uint64_t snap = store_.snapshot_acquire();
  const TxnId q = query(100);
  commit_value(7, 500);  // created after the snapshot
  std::unordered_map<Key, Value> charged;
  Result<VersionRead> v = resolver_.read_fresh(q, 7, snap, charged);
  // The ring cannot distinguish "did not exist yet" from "versions evicted",
  // so this surfaces as snapshot-too-old; the piece runner resubmits.
  EXPECT_EQ(v.status().code(), ErrorCode::kAborted);
  store_.snapshot_release(snap);
}

TEST_F(DcResolverTest, FreshReadChargesOnlyTheQuerysImport) {
  // The only charge divergence control makes is a query pricing its own
  // fresh read: no export counterpart, nothing billed to a live update.
  store_.load(1, 100);
  const std::uint64_t snap = store_.snapshot_acquire();
  const TxnId q = query(1000);
  const TxnId u = update(1000);
  commit_value(1, 130);
  std::unordered_map<Key, Value> charged;
  ASSERT_TRUE(resolver_.read_fresh(q, 1, snap, charged).ok());
  const EtRegistry::ChargeStats cs = reg_.charge_stats();
  EXPECT_EQ(cs.import_charged, 30);
  EXPECT_EQ(cs.export_charged, 0);
  EXPECT_EQ(reg_.fuzziness_of(q), 30);
  EXPECT_EQ(reg_.fuzziness_of(u), 0);
  reg_.end_commit(u);
  store_.snapshot_release(snap);
}

TEST_F(DcResolverTest, UncommittedWritesAreInvisibleToQueries) {
  store_.load(1, 100);
  const std::uint64_t snap = store_.snapshot_acquire();
  const TxnId u = update(1000);
  ASSERT_TRUE(store_.write(u, 1, 900).ok());  // staged, not committed
  const TxnId q = query(1000);
  std::unordered_map<Key, Value> charged;
  Result<VersionRead> v = resolver_.read_fresh(q, 1, snap, charged);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().value, 100);     // dirty data can never leak
  EXPECT_EQ(reg_.fuzziness_of(q), 0);  // and uncommitted state costs nothing
  store_.snapshot_release(snap);
}

}  // namespace
}  // namespace atp
