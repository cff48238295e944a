#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "txn/epsilon.h"
#include "txn/registry.h"

namespace atp {
namespace {

TEST(EpsilonSpec, Factories) {
  EXPECT_EQ(EpsilonSpec::serializable(), (EpsilonSpec{0, 0}));
  EXPECT_EQ(EpsilonSpec::symmetric(5), (EpsilonSpec{5, 5}));
  EXPECT_EQ(EpsilonSpec::importing(7).import_limit, 7);
  EXPECT_EQ(EpsilonSpec::importing(7).export_limit, 0);
  EXPECT_EQ(EpsilonSpec::exporting(9).export_limit, 9);
  EXPECT_EQ(EpsilonSpec::unlimited().import_limit, kInfiniteLimit);
}

TEST(EpsilonSpec, SpecForMapsKindToSide) {
  EXPECT_EQ(spec_for(TxnKind::Query, 10).import_limit, 10);
  EXPECT_EQ(spec_for(TxnKind::Query, 10).export_limit, 0);
  EXPECT_EQ(spec_for(TxnKind::Update, 10).export_limit, 10);
  EXPECT_EQ(spec_for(TxnKind::Update, 10).import_limit, 0);
}

TEST(EtRegistry, BeginAssignsDistinctIds) {
  EtRegistry reg;
  const TxnId a = reg.begin(TxnKind::Query, EpsilonSpec::importing(10));
  const TxnId b = reg.begin(TxnKind::Update, EpsilonSpec::exporting(10));
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.get(a)->kind, TxnKind::Query);
  EXPECT_EQ(reg.get(b)->kind, TxnKind::Update);
  EXPECT_EQ(reg.live_count(), 2u);
}

TEST(EtRegistry, AllocateIdDoesNotRegister) {
  EtRegistry reg;
  const TxnId id = reg.allocate_id();
  EXPECT_NE(id, kInvalidTxn);
  EXPECT_EQ(reg.live_count(), 0u);
  EXPECT_FALSE(reg.get(id).has_value());
}

TEST(EtRegistry, SelfImportWithinLimit) {
  EtRegistry reg;
  const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::importing(10));
  EXPECT_TRUE(reg.try_self_import(q, 4));
  EXPECT_TRUE(reg.try_self_import(q, 6));
  EXPECT_EQ(reg.fuzziness_of(q), 10);
  EXPECT_EQ(reg.charge_stats().charges_ok, 2u);
}

TEST(EtRegistry, SelfImportRefusedWhenImportWouldOverflow) {
  EtRegistry reg;
  const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::importing(5));
  EXPECT_TRUE(reg.try_self_import(q, 5));
  EXPECT_FALSE(reg.try_self_import(q, 1));  // import exhausted
  EXPECT_EQ(reg.fuzziness_of(q), 5);        // no partial state change
  EXPECT_EQ(reg.charge_stats().rejected_import, 1u);
}

TEST(EtRegistry, NegativeChargeRejected) {
  EtRegistry reg;
  const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::importing(100));
  EXPECT_FALSE(reg.try_self_import(q, -1));
  EXPECT_EQ(reg.fuzziness_of(q), 0);
}

TEST(EtRegistry, ChargeOnEndedEtFails) {
  EtRegistry reg;
  const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::importing(100));
  reg.end_abort(q);
  EXPECT_FALSE(reg.try_self_import(q, 1));
}

TEST(EtRegistry, SetSpecWidensBudget) {
  EtRegistry reg;
  const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::importing(1));
  EXPECT_FALSE(reg.try_self_import(q, 5));
  reg.set_spec(q, EpsilonSpec::importing(10));
  EXPECT_TRUE(reg.try_self_import(q, 5));
}

TEST(EtRegistry, CommitRollsFuzzinessUpToParent) {
  EtRegistry reg;
  const TxnId parent = reg.allocate_id();
  // Consecutive ids: the two pieces and the parent sit on different shards,
  // so the roll-up crosses shards.
  const TxnId p1 =
      reg.begin(TxnKind::Query, EpsilonSpec::importing(10), parent);
  const TxnId p2 =
      reg.begin(TxnKind::Query, EpsilonSpec::importing(10), parent);
  ASSERT_TRUE(reg.try_self_import(p1, 3));
  ASSERT_TRUE(reg.try_self_import(p2, 4));
  EXPECT_EQ(reg.end_commit(p1), 3);
  EXPECT_EQ(reg.end_commit(p2), 4);
  // Lemma 1: Z_t = sum of Z_p.
  EXPECT_EQ(reg.parent_fuzziness(parent), 7);
  reg.forget_parent(parent);
  EXPECT_EQ(reg.parent_fuzziness(parent), 0);
}

TEST(EtRegistry, AbortDropsFuzzinessWithoutRollup) {
  EtRegistry reg;
  const TxnId parent = reg.allocate_id();
  const TxnId p1 =
      reg.begin(TxnKind::Query, EpsilonSpec::importing(10), parent);
  const TxnId u = reg.begin(TxnKind::Update, EpsilonSpec::exporting(100));
  ASSERT_TRUE(reg.try_self_import(p1, 3));
  reg.end_abort(p1);  // "the piece rolls back and resets Z to zero"
  EXPECT_EQ(reg.parent_fuzziness(parent), 0);
  EXPECT_EQ(reg.live_count(), 1u);  // only u
  EXPECT_TRUE(reg.get(u).has_value());
}

TEST(EtRegistry, InfiniteLimitAbsorbsAnyCharge) {
  EtRegistry reg;
  const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::unlimited());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(reg.try_self_import(q, 1e15));
  }
}

TEST(EtRegistry, RetirementRollsUpAcrossShards) {
  // Every shard retires its own ETs; charge_stats() sums the shards.
  EtRegistry reg;
  std::vector<TxnId> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(reg.begin(TxnKind::Query, EpsilonSpec::importing(10)));
  }
  const TxnId u = reg.begin(TxnKind::Update, EpsilonSpec::unlimited());
  for (TxnId q : queries) {
    ASSERT_TRUE(reg.try_self_import(q, 2));
    (void)reg.end_commit(q);
  }
  (void)reg.end_commit(u);
  const EtRegistry::ChargeStats cs = reg.charge_stats();
  EXPECT_EQ(cs.retired_query_count, 40u);
  EXPECT_EQ(cs.retired_query_used, 80);
  EXPECT_EQ(cs.retired_query_limit, 400);
  EXPECT_EQ(cs.retired_update_count, 1u);
  EXPECT_EQ(cs.retired_update_unlimited, 1u);
  EXPECT_EQ(reg.live_count(), 0u);
}

TEST(EtRegistry, SnapshotAllReportsEveryLiveEt) {
  EtRegistry reg;
  const TxnId parent = reg.allocate_id();
  const TxnId q =
      reg.begin(TxnKind::Query, EpsilonSpec::importing(10), parent);
  const TxnId u = reg.begin(TxnKind::Update, EpsilonSpec::exporting(20));
  ASSERT_TRUE(reg.try_self_import(q, 4));

  const std::vector<EtRegistry::Entry> all = reg.snapshot_all();
  ASSERT_EQ(all.size(), 2u);

  const auto find = [&](TxnId id) -> const EtRegistry::Entry* {
    for (const EtRegistry::Entry& e : all)
      if (e.id == id) return &e;
    return nullptr;
  };
  const EtRegistry::Entry* qe = find(q);
  const EtRegistry::Entry* ue = find(u);
  ASSERT_NE(qe, nullptr);
  ASSERT_NE(ue, nullptr);
  EXPECT_EQ(qe->kind, TxnKind::Query);
  EXPECT_EQ(qe->parent, parent);
  EXPECT_EQ(qe->spec.import_limit, 10);
  EXPECT_EQ(qe->imported, 4);
  EXPECT_EQ(qe->exported, 0);
  EXPECT_EQ(ue->kind, TxnKind::Update);
  EXPECT_EQ(ue->parent, kInvalidTxn);
  EXPECT_EQ(ue->spec.export_limit, 20);
  EXPECT_EQ(ue->exported, 0);
}

TEST(EtRegistry, SnapshotAllExcludesEndedEts) {
  EtRegistry reg;
  const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::importing(10));
  const TxnId u = reg.begin(TxnKind::Update, EpsilonSpec::exporting(10));
  (void)reg.end_commit(q);
  reg.end_abort(u);
  EXPECT_TRUE(reg.snapshot_all().empty());
}

TEST(EtRegistry, SnapshotAllSeesSpecWidening) {
  EtRegistry reg;
  const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::importing(5));
  reg.set_spec(q, EpsilonSpec::importing(50));
  const std::vector<EtRegistry::Entry> all = reg.snapshot_all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].spec.import_limit, 50);
}

TEST(EtRegistry, SnapshotAllPairsStayConsistent) {
  // Each round widens the limit by one (set_spec) and charges one
  // (try_self_import), so after the round imported == import_limit.  Every
  // snapshot must show the (counter, limit) pair of one instant.
  EtRegistry reg;
  const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::importing(0));
  for (int round = 0; round < 50; ++round) {
    reg.set_spec(q, EpsilonSpec::importing(Value(round + 1)));
    ASSERT_TRUE(reg.try_self_import(q, 1));
    const std::vector<EtRegistry::Entry> all = reg.snapshot_all();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].imported, all[0].spec.import_limit);
    EXPECT_EQ(all[0].imported, Value(round + 1));
  }
}

TEST(EtRegistry, ConcurrentShardsNeverTearAPairAndDrainToEmpty) {
  // Four threads run begin -> (set_spec, try_self_import)* -> end_commit on
  // ids spread over every shard while a fifth sweeps snapshot_all.  The
  // writers keep 0 <= import_limit - imported <= 1 at every instant (widen
  // by one, then charge one), so a snapshot pairing a counter from one
  // instant with a limit from another shows up as a gap outside [0, 1].
  constexpr int kWriters = 4;
  constexpr int kEtsPerWriter = 300;
  constexpr int kRounds = 8;
  EtRegistry reg;
  std::atomic<int> writers_done{0};
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kEtsPerWriter; ++i) {
        const TxnId q = reg.begin(TxnKind::Query, EpsilonSpec::importing(0));
        for (int r = 0; r < kRounds; ++r) {
          reg.set_spec(q, EpsilonSpec::importing(Value(r + 1)));
          if (!reg.try_self_import(q, 1)) torn = true;
        }
        if (reg.end_commit(q) != Value(kRounds)) torn = true;
      }
      writers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_done.load() < kWriters) {
      for (const EtRegistry::Entry& e : reg.snapshot_all()) {
        const Value gap = e.spec.import_limit - e.imported;
        if (gap < 0 || gap > 1) torn = true;
      }
      snapshots.fetch_add(1);
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(reg.live_count(), 0u);
  EXPECT_TRUE(reg.snapshot_all().empty());
  EXPECT_EQ(reg.charge_stats().retired_query_count,
            std::uint64_t(kWriters) * kEtsPerWriter);
}

}  // namespace
}  // namespace atp
