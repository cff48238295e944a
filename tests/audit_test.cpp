// SR / ESR certifier tests: hand-crafted histories (including a deliberately
// non-serializable one), merge-map semantics for chopped transactions, the
// fuzziness-ledger replay, and end-to-end oracles over real executor runs.
#include <gtest/gtest.h>

#include <vector>

#include "audit/esr_certifier.h"
#include "audit/sr_certifier.h"
#include "engine/executor.h"
#include "trace/tracer.h"
#include "workload/banking.h"

namespace atp {
namespace {

// Hand-crafted event builder: seq doubles as timestamp; everything else on
// defaults unless the test cares.
TraceEvent ev(std::uint64_t seq, TraceKind kind, TxnId txn, Key key = 0,
              double a = 0, double b = 0, std::uint64_t aux = 0,
              std::uint64_t aux2 = 0, SiteId site = 0) {
  TraceEvent e;
  e.seq = seq;
  e.ts_us = std::int64_t(seq);
  e.site = site;
  e.kind = kind;
  e.txn = txn;
  e.key = key;
  e.a = a;
  e.b = b;
  e.aux = aux;
  e.aux2 = aux2;
  return e;
}

TEST(SrCertifier, PassesASerialHistory) {
  // T1: w(x) commit; then T2: r(x) w(y) commit.  One wr edge, acyclic.
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::Write, 1, 10),
      ev(2, TraceKind::TxnCommit, 1),
      ev(3, TraceKind::Read, 2, 10),
      ev(4, TraceKind::Write, 2, 11),
      ev(5, TraceKind::TxnCommit, 2),
  };
  const SrReport report = certify_sr(events);
  EXPECT_TRUE(report.serializable);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.committed_txns, 2u);
  EXPECT_EQ(report.edges, 1u);
  EXPECT_TRUE(report.cycle.empty());
  EXPECT_NE(report.describe().find("SR: OK"), std::string::npos);
}

TEST(SrCertifier, DetectsInjectedNonSerializableHistory) {
  // The classic rw-rw cycle (write skew): T1 reads x then writes y AFTER T2
  // read y; T2 reads y then writes x after T1 read x.  Not conflict-
  // serializable, yet never blocked under fuzzy/optimistic locking.
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::Read, 1, 10),   // T1 r(x)
      ev(2, TraceKind::Read, 2, 11),   // T2 r(y)
      ev(3, TraceKind::Write, 1, 11),  // T1 w(y)  -> rw edge T2 -> T1
      ev(4, TraceKind::Write, 2, 10),  // T2 w(x)  -> rw edge T1 -> T2
      ev(5, TraceKind::TxnCommit, 1),
      ev(6, TraceKind::TxnCommit, 2),
  };
  const SrReport report = certify_sr(events);
  EXPECT_FALSE(report.serializable);
  ASSERT_EQ(report.cycle.size(), 2u);
  // The cycle closes: each edge's head is the next edge's tail.
  EXPECT_EQ(report.cycle[0].to, report.cycle[1].from);
  EXPECT_EQ(report.cycle[1].to, report.cycle[0].from);
  EXPECT_EQ(report.cycle[0].kind, DepKind::RW);
  EXPECT_EQ(report.cycle[1].kind, DepKind::RW);
  const std::string verdict = report.describe();
  EXPECT_NE(verdict.find("SR violation"), std::string::npos);
  EXPECT_NE(verdict.find("rw"), std::string::npos);
}

TEST(SrCertifier, UncommittedTransactionsCreateNoEdges) {
  // T2's conflicting ops never commit, so the cycle's second half vanishes.
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::Read, 1, 10),
      ev(2, TraceKind::Read, 2, 11),
      ev(3, TraceKind::Write, 1, 11),
      ev(4, TraceKind::Write, 2, 10),
      ev(5, TraceKind::TxnCommit, 1),
      ev(6, TraceKind::TxnAbort, 2),
  };
  const SrReport report = certify_sr(events);
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.committed_txns, 1u);
  EXPECT_EQ(report.edges, 0u);
}

TEST(SrCertifier, SameKeyDifferentSitesNeverConflict) {
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::Write, 1, 10, 0, 0, 0, 0, /*site=*/0),
      ev(2, TraceKind::Write, 1, 10, 0, 0, 0, 0, /*site=*/1),
      ev(3, TraceKind::TxnCommit, 1, 0, 0, 0, 0, 0, /*site=*/0),
      ev(4, TraceKind::TxnCommit, 1, 0, 0, 0, 0, 0, /*site=*/1),
  };
  const SrReport report = certify_sr(events);
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.committed_txns, 2u);  // (site 0, T1) and (site 1, T1)
  EXPECT_EQ(report.edges, 0u);
}

TEST(SrCertifier, MergeMapLiftsPieceCycleToOriginals) {
  // Pieces 11 and 12 belong to original 100; piece-level the history is
  // acyclic (11 -> 2 -> 12), but merged to originals it is 100 <-> 2: the
  // interleaving the certifier must flag at original-transaction granularity.
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::PieceStart, 11, 0, 0, 0, 0, /*original=*/100),
      ev(2, TraceKind::PieceStart, 12, 1, 0, 0, 0, /*original=*/100),
      ev(3, TraceKind::Read, 11, 10),
      ev(4, TraceKind::TxnCommit, 11),
      ev(5, TraceKind::Write, 2, 10),  // rw: 11 -> 2
      ev(6, TraceKind::Write, 2, 20),
      ev(7, TraceKind::TxnCommit, 2),
      ev(8, TraceKind::Write, 12, 20),  // ww: 2 -> 12
      ev(9, TraceKind::TxnCommit, 12),
  };
  const SrReport piece_level = certify_sr(events);
  EXPECT_TRUE(piece_level.serializable);

  const auto merge = piece_merge_map(events);
  ASSERT_EQ(merge.size(), 2u);
  EXPECT_EQ(merge.at(audit_node(0, 11)), audit_node(0, 100));
  const SrReport merged = certify_sr(events, &merge);
  EXPECT_FALSE(merged.serializable);
  ASSERT_EQ(merged.cycle.size(), 2u);
  EXPECT_EQ(audit_node_txn(merged.cycle[0].from), 100u);
}

TEST(SrCertifier, DroppedEventsMakeTheTraceIncomplete) {
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::Write, 1, 10),
      ev(2, TraceKind::TxnCommit, 1),
  };
  const SrReport report = certify_sr(events, nullptr, /*dropped=*/5);
  EXPECT_FALSE(report.complete);
  EXPECT_NE(report.describe().find("incomplete"), std::string::npos);
}

TEST(EsrCertifier, PassesChargesWithinLimits) {
  const std::vector<TraceEvent> events{
      // Query 1 imports 3 then 4 against limit 10; update 2 exports the same
      // against limit 20.  Both commit with matching Z.
      ev(1, TraceKind::FuzzImport, 1, 0, 3, 10, 0, 2),
      ev(2, TraceKind::FuzzExport, 2, 0, 3, 20, 0, 1),
      ev(3, TraceKind::FuzzImport, 1, 0, 4, 10, 0, 2),
      ev(4, TraceKind::FuzzExport, 2, 0, 4, 20, 0, 1),
      ev(5, TraceKind::TxnCommit, 1, 0, /*Z=*/7),
      ev(6, TraceKind::TxnCommit, 2, 0, /*Z=*/7),
  };
  const EsrReport report = certify_esr(events);
  EXPECT_TRUE(report.ok) << report.describe();
  EXPECT_EQ(report.charges, 4u);
  EXPECT_EQ(report.committed_ets, 2u);
}

TEST(EsrCertifier, DetectsImportOverrun) {
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::FuzzImport, 1, 0, 6, 10, 0, 2),
      ev(2, TraceKind::FuzzImport, 1, 0, 6, 10, 0, 2),  // 12 > 10
      ev(3, TraceKind::TxnCommit, 1, 0, /*Z=*/12),
  };
  const EsrReport report = certify_esr(events);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, EsrViolationKind::ImportOverrun);
  EXPECT_EQ(report.violations[0].accumulated, 12.0);
  EXPECT_EQ(report.violations[0].limit, 10.0);
  EXPECT_EQ(report.violations[0].seq, 2u);
  EXPECT_NE(report.describe().find("import overrun"), std::string::npos);
}

TEST(EsrCertifier, DetectsExportOverrun) {
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::FuzzExport, 2, 0, 30, 25, 0, 1),  // 30 > 25
      ev(2, TraceKind::TxnCommit, 2, 0, /*Z=*/30),
  };
  const EsrReport report = certify_esr(events);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, EsrViolationKind::ExportOverrun);
}

TEST(EsrCertifier, AbortedOverrunIsTheMechanismWorking) {
  // The scheduler caught the overrun and aborted: not a violation.
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::FuzzImport, 1, 0, 12, 10, 0, 2),
      ev(2, TraceKind::TxnAbort, 1),
  };
  const EsrReport report = certify_esr(events);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.committed_ets, 0u);
}

TEST(EsrCertifier, DetectsLedgerMismatch) {
  const std::vector<TraceEvent> events{
      ev(1, TraceKind::FuzzImport, 1, 0, 3, 10, 0, 2),
      ev(2, TraceKind::TxnCommit, 1, 0, /*Z=*/9),  // replay says 3
  };
  const EsrReport report = certify_esr(events);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, EsrViolationKind::LedgerMismatch);
}

TEST(EsrCertifier, DroppedEventsMakeTheTraceIncomplete) {
  const EsrReport report = certify_esr({}, /*dropped=*/1);
  EXPECT_FALSE(report.complete);
}

// ---------------------------------------------------------------------------
// End-to-end oracles: real workload runs, judged by the certifiers.

Workload small_banking(std::uint64_t seed) {
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 8;
  cfg.branch_audit_fraction = 0.2;
  cfg.global_audit_fraction = 0.1;
  return make_banking(cfg, 120, seed);
}

ExecutorReport traced_run(const Workload& w, const MethodConfig& method,
                          Tracer& tracer) {
  auto plan = ExecutionPlan::build(w.types, method);
  EXPECT_TRUE(plan.ok()) << plan.status().to_string();
  DatabaseOptions dbo = Executor::database_options(method);
  dbo.tracer = &tracer;
  Database db(dbo);
  w.load_into(db);
  ExecutorOptions opts;
  opts.workers = 4;
  opts.seed = 7;
  return Executor::run(db, plan.value(), w.instances, opts);
}

TEST(AuditOracle, StrictTwoPhaseLockingRunCertifiesSr) {
  // baseline_sr = unchopped + pure CC, sr_chop_cc = SR-chopping + pure CC:
  // both the piece-level and the merged (original-transaction) graphs must
  // be acyclic -- for sr_chop_cc that is Theorem 1 (an SC-cycle-free
  // chopping is serializable with respect to the original transactions).
  for (const MethodConfig method :
       {MethodConfig::baseline_sr(), MethodConfig::sr_chop_cc()}) {
    Tracer tracer(1 << 18);
    const Workload w = small_banking(21);
    const auto report = traced_run(w, method, tracer);
    EXPECT_EQ(report.committed + report.rolled_back, w.instances.size());

    const auto events = tracer.collect();
    const SrReport piece_level =
        certify_sr(events, nullptr, tracer.dropped());
    EXPECT_TRUE(piece_level.complete) << method.name();
    EXPECT_TRUE(piece_level.serializable)
        << method.name() << ": " << piece_level.describe();
    EXPECT_GT(piece_level.committed_txns, 0u);

    const auto merge = piece_merge_map(events);
    const SrReport merged = certify_sr(events, &merge, tracer.dropped());
    EXPECT_TRUE(merged.complete) << method.name();
    EXPECT_TRUE(merged.serializable)
        << method.name() << ": " << merged.describe();
  }
}

TEST(AuditOracle, EsrChoppedCcRunCertifiesSrPerPiece) {
  // method2 = ESR-chop + CC: every piece is a strict-2PL transaction, so the
  // PIECE-level graph is acyclic (the original-level one need not be -- that
  // is exactly the serializability ESR trades away).
  Tracer tracer(1 << 18);
  const Workload w = small_banking(22);
  const auto report = traced_run(w, MethodConfig::method2(), tracer);
  EXPECT_EQ(report.committed + report.rolled_back, w.instances.size());

  const auto events = tracer.collect();
  const SrReport piece_level = certify_sr(events, nullptr, tracer.dropped());
  EXPECT_TRUE(piece_level.complete);
  EXPECT_TRUE(piece_level.serializable) << piece_level.describe();
}

TEST(AuditOracle, DivergenceControlRunsCertifyEsr) {
  // Methods 1 and 3 run divergence control with finite budgets: the replayed
  // ledger must show every committed ET inside its limits.
  for (const MethodConfig method :
       {MethodConfig::method1(), MethodConfig::method3()}) {
    Tracer tracer(1 << 18);
    const Workload w = small_banking(23);
    const auto report = traced_run(w, method, tracer);
    EXPECT_EQ(report.committed + report.rolled_back, w.instances.size());
    EXPECT_EQ(report.budget_violations, 0u);

    const EsrReport esr = certify_esr(tracer.collect(), tracer.dropped());
    EXPECT_TRUE(esr.complete) << method.name();
    EXPECT_TRUE(esr.ok) << method.name() << ": " << esr.describe();
    EXPECT_GT(esr.committed_ets, 0u);
  }
}

}  // namespace
}  // namespace atp
