// Execution plans (chopping + budgets per method), the piece runner, and the
// multi-worker executor across all Table-1 method configurations.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "engine/piece_runner.h"
#include "engine/plan.h"
#include "wal/log.h"
#include "wal/recovery.h"
#include "workload/banking.h"

namespace atp {
namespace {

constexpr Key X = 1, Y = 2;

TxnProgram transfer_type(Value bound, Value eps) {
  return ProgramBuilder("transfer", TxnKind::Update)
      .add(X, -10, bound)
      .add(Y, +10, bound)
      .epsilon(eps)
      .build();
}

TxnProgram audit_type(Value eps) {
  return ProgramBuilder("audit", TxnKind::Query)
      .read(X)
      .read(Y)
      .epsilon(eps)
      .build();
}

TEST(MethodConfig, NamesAreDistinct) {
  EXPECT_EQ(MethodConfig::baseline_sr().name(), "none+CC");
  EXPECT_EQ(MethodConfig::baseline_dc().name(), "none+DC");
  EXPECT_EQ(MethodConfig::sr_chop_cc().name(), "SR-chop+CC");
  EXPECT_EQ(MethodConfig::method1().name(), "SR-chop+DC/static");
  EXPECT_EQ(MethodConfig::method1(DistPolicy::Dynamic).name(),
            "SR-chop+DC/dynamic");
  EXPECT_EQ(MethodConfig::method2().name(), "ESR-chop+CC");
  EXPECT_EQ(MethodConfig::method3().name(), "ESR-chop+DC/static");
}

TEST(ExecutionPlan, UnchoppedPlanHasSinglePieces) {
  const std::vector<TxnProgram> types{transfer_type(40, 100),
                                      audit_type(100)};
  auto plan = ExecutionPlan::build(types, MethodConfig::baseline_sr());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().types.size(), 2u);
  EXPECT_EQ(plan.value().total_pieces(), 2u);
}

TEST(ExecutionPlan, SrChopMergesUnderGlobalAudit) {
  // The audit covers both items: SR-chopping must keep the transfer whole.
  const std::vector<TxnProgram> types{transfer_type(40, 100),
                                      audit_type(100)};
  auto plan = ExecutionPlan::build(types, MethodConfig::sr_chop_cc());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().types[0].piece_ranges.size(), 1u);
}

TEST(ExecutionPlan, EsrChopKeepsTransferInTwoPieces) {
  const std::vector<TxnProgram> types{transfer_type(40, 200),
                                      audit_type(200)};
  auto plan = ExecutionPlan::build(types, MethodConfig::method2());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().types[0].piece_ranges.size(), 2u);
  EXPECT_GT(plan.value().types[0].z_is, 0);
}

TEST(ExecutionPlan, Method3ReservesInterSiblingBudget) {
  const std::vector<TxnProgram> types{transfer_type(40, 200),
                                      audit_type(200)};
  auto plan = ExecutionPlan::build(types, MethodConfig::method3());
  ASSERT_TRUE(plan.ok());
  const auto& tp = plan.value().types[0];
  // Eq. 6: the DC budget is Limit_t minus Z^is.
  EXPECT_EQ(tp.plan_info.limit_total, tp.type.epsilon_limit - tp.z_is);
  // Under CC (method 2) the full limit is retained.
  auto plan2 = ExecutionPlan::build(types, MethodConfig::method2());
  ASSERT_TRUE(plan2.ok());
  EXPECT_EQ(plan2.value().types[0].plan_info.limit_total,
            types[0].epsilon_limit);
}

TEST(ExecutionPlan, DoubledStreamCatchesSelfConflicts) {
  // A type whose instances conflict with EACH OTHER (absolute writes): a
  // single-copy analysis would chop it, the doubled analysis must not.
  const TxnProgram t = ProgramBuilder("selfwrite", TxnKind::Update)
                           .write(X, 5, 5)
                           .write(Y, 5, 5)
                           .epsilon(1000)
                           .build();
  auto plan = ExecutionPlan::build({t}, MethodConfig::sr_chop_cc());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().types[0].piece_ranges.size(), 1u);
}

TEST(ExecutionPlan, CommutingTransfersChopDespiteEachOther) {
  // Adds commute, so two transfer instances do not conflict: chopping OK.
  auto plan =
      ExecutionPlan::build({transfer_type(40, 100)}, MethodConfig::sr_chop_cc());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().types[0].piece_ranges.size(), 2u);
}

TEST(ExecutionPlan, DependencyTreeFollowsSharedItems) {
  // Pieces touching a common item chain up; unrelated pieces hang off the
  // root and may run with Figure 2's parallel fan-out split.
  const TxnProgram t = ProgramBuilder("multi", TxnKind::Update)
                           .add(X, -1, 1)   // piece 0: X
                           .add(Y, +1, 1)   // piece 1: Y   (nothing shared)
                           .add(Y, -1, 1)   // piece 2: Y   (shares with 1)
                           .add(X, +1, 1)   // piece 3: X   (shares with 0)
                           .epsilon(100)
                           .build();
  auto plan = ExecutionPlan::build({t}, MethodConfig::sr_chop_cc());
  ASSERT_TRUE(plan.ok());
  const auto& info = plan.value().types[0].plan_info;
  ASSERT_EQ(info.piece_count, 4u);
  EXPECT_EQ(info.children[0], (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(info.children[1], (std::vector<std::size_t>{2}));
  EXPECT_TRUE(info.children[2].empty());
  EXPECT_TRUE(info.children[3].empty());
}

// --- PieceRunner ---------------------------------------------------------

class PieceRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.load(X, 1000);
    db_.load(Y, 1000);
  }
  Database db_{DatabaseOptions{SchedulerKind::DC,
                               std::chrono::milliseconds(500)}};
  Rng rng_{42};
};

TEST_F(PieceRunnerTest, RunsChoppedTransferToCommit) {
  auto plan =
      ExecutionPlan::build({transfer_type(40, 100)}, MethodConfig::method1());
  ASSERT_TRUE(plan.ok());
  TxnInstance inst;
  inst.type_index = 0;
  inst.ops = {Access::add(X, -25, 40), Access::add(Y, +25, 40)};
  PieceRunner runner(db_, nullptr);
  const auto r = runner.run(plan.value().types[0], inst,
                            DistPolicy::Static, rng_);
  EXPECT_TRUE(r.committed);
  EXPECT_FALSE(r.rolled_back);
  EXPECT_EQ(db_.store().read_committed(X).value(), 975);
  EXPECT_EQ(db_.store().read_committed(Y).value(), 1025);
}

TEST_F(PieceRunnerTest, ProgrammedRollbackAbandonsTransaction) {
  TxnProgram t = ProgramBuilder("t", TxnKind::Update)
                     .add(X, -5, 40)
                     .rollback_point()
                     .add(Y, +5, 40)
                     .epsilon(100)
                     .build();
  auto plan = ExecutionPlan::build({t}, MethodConfig::method1());
  ASSERT_TRUE(plan.ok());
  TxnInstance inst;
  inst.type_index = 0;
  inst.ops = {Access::add(X, -5, 40), Access::add(Y, +5, 40)};
  inst.take_rollback = true;
  RunMetrics metrics;
  PieceRunner runner(db_, &metrics);
  const auto r = runner.run(plan.value().types[0], inst,
                            DistPolicy::Static, rng_);
  EXPECT_FALSE(r.committed);
  EXPECT_TRUE(r.rolled_back);
  EXPECT_EQ(metrics.aborts_rollback.get(), 1u);
  // Nothing persisted.
  EXPECT_EQ(db_.store().read_committed(X).value(), 1000);
  EXPECT_EQ(db_.store().read_committed(Y).value(), 1000);
}

TEST_F(PieceRunnerTest, QueryObservedResultAndErrorMetric) {
  auto plan =
      ExecutionPlan::build({audit_type(100)}, MethodConfig::baseline_dc());
  ASSERT_TRUE(plan.ok());
  TxnInstance inst;
  inst.type_index = 0;
  inst.ops = {Access::read(X), Access::read(Y)};
  inst.has_expected_result = true;
  inst.expected_result = 2000;
  RunMetrics metrics;
  PieceRunner runner(db_, &metrics);
  const auto r = runner.run(plan.value().types[0], inst,
                            DistPolicy::Static, rng_);
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(r.observed_result, 2000);
  EXPECT_EQ(metrics.query_error.summarize().max, 0);
}

// --- PieceRunner over a WAL: continuations and the log-force budget ------

DatabaseOptions wal_db_options(LogDevice* wal) {
  DatabaseOptions o;
  o.scheduler = SchedulerKind::DC;
  o.lock_timeout = std::chrono::milliseconds(1);
  o.wal = wal;
  return o;
}

TEST(PieceRunnerWal, OneSyncCommitPerTwoPieceOriginal) {
  // Piece 1 commits kAsync (its continuation is on the log), the last
  // piece waits: N two-piece originals cost N sync commits, not 2N.
  auto plan =
      ExecutionPlan::build({transfer_type(40, 100)}, MethodConfig::method1());
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().types[0].piece_ranges.size(), 2u);
  LogDevice wal;
  Database db(wal_db_options(&wal));
  db.load(X, 1000);
  db.load(Y, 1000);
  PieceRunner runner(db, nullptr);
  Rng rng(3);
  constexpr std::uint64_t kOriginals = 20;
  TxnInstance inst;
  inst.ops = {Access::add(X, -1, 40), Access::add(Y, +1, 40)};
  for (std::uint64_t i = 0; i < kOriginals; ++i) {
    ASSERT_TRUE(runner.run(plan.value().types[0], inst, DistPolicy::Static,
                           rng)
                    .committed);
  }
  const GroupCommitStats gs = db.group_committer()->stats();
  EXPECT_EQ(gs.sync_commits, kOriginals);
  EXPECT_EQ(gs.async_commits, kOriginals);
  EXPECT_GE(wal.durable_lsn(), wal.next_lsn() - 1);  // all of it durable
  EXPECT_EQ(db.store().read_committed(Y).value(), 1000 + Value(kOriginals));
  // Every continuation the run opened was finished on the log.
  EXPECT_TRUE(recover_from_log(wal, db.store()).continuations.empty());
}

TEST(PieceRunnerWal, GiveUpReportsNoCommitAndLeavesTheContinuationOpen) {
  // A lock held for good makes piece 2 time out on every attempt.  At the
  // resubmission cap the runner gives up: the original did not commit, so
  // it must not say it did -- and its continuation stays on the log for
  // resume() once the lock is gone.
  auto plan =
      ExecutionPlan::build({transfer_type(40, 100)}, MethodConfig::method1());
  ASSERT_TRUE(plan.ok());
  LogDevice wal;
  Database db(wal_db_options(&wal));
  db.load(X, 1000);
  db.load(Y, 1000);
  db.checkpoint();  // the loaded balances reach the log

  Txn holder = db.begin(TxnKind::Update, EpsilonSpec::serializable());
  ASSERT_TRUE(holder.write(Y, 1000).ok());  // X lock on Y, never released
  PieceRunner runner(db, nullptr);
  runner.set_max_resubmit(3);
  Rng rng(5);
  TxnInstance inst;
  inst.ops = {Access::add(X, -25, 40), Access::add(Y, +25, 40)};
  const TxnRunResult r =
      runner.run(plan.value().types[0], inst, DistPolicy::Static, rng);
  EXPECT_FALSE(r.committed);
  EXPECT_FALSE(r.rolled_back);
  EXPECT_EQ(r.resubmissions, 3u);
  EXPECT_EQ(db.store().read_committed(X).value(), 975);  // piece 1 is in
  holder.abort();

  // Crash and recover: the continuation is open, and the executor finishes
  // it before any new work.
  db.group_committer()->flush(1);
  const RecoveryResult rec = db.recover_from_wal();
  ASSERT_EQ(rec.continuations.size(), 1u);
  EXPECT_EQ(rec.continuations[0].done.size(), 1u);
  const ExecutorReport report = Executor::run(db, plan.value(), {});
  EXPECT_EQ(report.resumed, 1u);
  EXPECT_EQ(db.store().read_committed(X).value(), 975);
  EXPECT_EQ(db.store().read_committed(Y).value(), 1025);
  EXPECT_TRUE(db.take_continuations().empty());
  EXPECT_TRUE(recover_from_log(wal, db.store()).continuations.empty());
}

TEST(PieceRunnerWal, ResumeRunsOnlyThePiecesWithoutACommit) {
  // Four pieces; the log holds commits of pieces 1 and 2.  Resume must run
  // pieces 3 and 4 exactly once each, stamped with the same continuation.
  const TxnProgram t = ProgramBuilder("chain", TxnKind::Update)
                           .add(X, -1, 1)
                           .add(Y, +1, 1)
                           .add(Y, -1, 1)
                           .add(X, +1, 1)
                           .epsilon(100)
                           .build();
  auto plan = ExecutionPlan::build({t}, MethodConfig::sr_chop_cc());
  ASSERT_TRUE(plan.ok());
  const TxnTypePlan& tp = plan.value().types[0];
  ASSERT_EQ(tp.piece_ranges.size(), 4u);
  LogDevice wal;
  Database db(wal_db_options(&wal));
  db.load(X, 100);
  db.load(Y, 100);
  TxnInstance inst;
  inst.ops = {Access::add(X, -7, 1), Access::add(Y, +7, 1),
              Access::add(Y, -3, 1), Access::add(X, +3, 1)};
  PieceRunner runner(db, nullptr);
  Rng rng(9);
  ASSERT_TRUE(runner.run(tp, inst, DistPolicy::Static, rng).committed);
  // Cut the log after piece 2's commit record (a legal crash state).
  std::vector<LogRecord> records = wal.records();
  std::uint64_t cut = 0;
  for (const LogRecord& r : records) {
    if (r.type == LogRecordType::kCommit && r.piece == 1) cut = r.lsn;
  }
  ASSERT_GT(cut, 0u);
  LogDevice prefix;
  for (const LogRecord& r : records) {
    if (r.lsn <= cut) prefix.append(r);
  }
  Database fresh(wal_db_options(&prefix));
  const RecoveryResult rec = fresh.recover_from_wal();
  ASSERT_EQ(rec.continuations.size(), 1u);
  EXPECT_EQ(rec.continuations[0].done.size(), 2u);
  EXPECT_EQ(fresh.store().read_committed(X).value(), 93);  // after-images
  EXPECT_EQ(fresh.store().read_committed(Y).value(), 107);
  PieceRunner again(fresh, nullptr);
  EXPECT_TRUE(
      again.resume(tp, rec.continuations[0], DistPolicy::Static, rng)
          .committed);
  EXPECT_EQ(fresh.store().read_committed(X).value(), 96);
  EXPECT_EQ(fresh.store().read_committed(Y).value(), 104);
  EXPECT_TRUE(recover_from_log(prefix, fresh.store()).continuations.empty());
}

// --- Executor across every Table-1 cell ----------------------------------

class ExecutorMatrixTest : public ::testing::TestWithParam<MethodConfig> {};

TEST_P(ExecutorMatrixTest, BankingMixCommitsEverythingAndConservesMoney) {
  const MethodConfig method = GetParam();
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 16;
  cfg.max_transfer = 50;
  cfg.branch_audit_fraction = 0.15;
  cfg.global_audit_fraction = 0.10;
  cfg.update_epsilon = 600;
  cfg.query_epsilon = 800;
  const Workload w = make_banking(cfg, 120, /*seed=*/7);

  auto plan = ExecutionPlan::build(w.types, method);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  Database db(Executor::database_options(method));
  w.load_into(db);

  ExecutorOptions opts;
  opts.workers = 4;
  opts.seed = 11;
  const ExecutorReport report = Executor::run(db, plan.value(), w.instances,
                                              opts);

  EXPECT_EQ(report.committed + report.rolled_back, w.instances.size());
  EXPECT_EQ(report.budget_violations, 0u);

  // Conservation at quiescence, regardless of method.
  Value sum = 0;
  for (const auto& [k, v] : db.store().snapshot_committed()) sum += v;
  EXPECT_EQ(sum, w.total_money);

  // Realized audit error respects the ESR bound.
  EXPECT_LE(report.query_error.max, cfg.query_epsilon + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ExecutorMatrixTest,
    ::testing::Values(MethodConfig::baseline_sr(), MethodConfig::baseline_dc(),
                      MethodConfig::sr_chop_cc(), MethodConfig::method1(),
                      MethodConfig::method1(DistPolicy::Dynamic),
                      MethodConfig::method2(), MethodConfig::method3(),
                      MethodConfig::method3(DistPolicy::Dynamic)),
    [](const ::testing::TestParamInfo<MethodConfig>& info) {
      std::string n = info.param.name();
      for (char& c : n) {
        if (c == '+' || c == '-' || c == '/') c = '_';
      }
      return n;
    });

TEST(ExecutorParallelPieces, FanOutExecutionCommitsAndConserves) {
  // Multi-hop transfers produce dependency trees with fan-out; Figure 2's
  // parallel Schedule() must reach the same final state as sequential.
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 8;
  cfg.hops = 3;
  cfg.global_audit_fraction = 0.1;
  cfg.update_epsilon = 2000;
  cfg.query_epsilon = 4000;
  const Workload w = make_banking(cfg, 60, 21);
  const MethodConfig method = MethodConfig::method3(DistPolicy::Dynamic);
  auto plan = ExecutionPlan::build(w.types, method);
  ASSERT_TRUE(plan.ok());

  for (const bool parallel : {false, true}) {
    Database db(Executor::database_options(method));
    w.load_into(db);
    ExecutorOptions opts;
    opts.workers = 3;
    opts.parallel_pieces = parallel;
    const ExecutorReport r = Executor::run(db, plan.value(), w.instances,
                                           opts);
    EXPECT_EQ(r.committed, w.instances.size()) << "parallel=" << parallel;
    EXPECT_EQ(r.budget_violations, 0u);
    Value sum = 0;
    for (const auto& [k, v] : db.store().snapshot_committed()) sum += v;
    EXPECT_EQ(sum, w.total_money) << "parallel=" << parallel;
  }
}

TEST(ExecutorChopping, AuditFreeStreamChopsUnderSr) {
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 8;
  cfg.global_audit_fraction = 0;  // no SC-cycle source at all
  cfg.branch_audit_fraction = 0;
  const Workload w = make_banking(cfg, 10, 5);
  auto sr = ExecutionPlan::build(w.types, MethodConfig::sr_chop_cc());
  ASSERT_TRUE(sr.ok());
  // Cross-branch transfers chop into 2 pieces under SR (adds commute, so
  // transfer types never conflict with each other).
  for (const auto& tp : sr.value().types) {
    EXPECT_EQ(tp.piece_ranges.size(), 2u) << tp.type.name;
  }
}

TEST(ExecutorChopping, AuditsKillSrChopButNotEsrChop) {
  // The Section 4 story: once audits read across the transfer's two
  // branches, the chopped transfer sits on an SC-cycle -> SR-chopping must
  // merge it back; ESR-chopping keeps it in two pieces because the transfer
  // bound fits the eps budgets (Definition 1).
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 8;
  cfg.global_audit_fraction = 0.1;
  cfg.branch_audit_fraction = 0.1;
  cfg.max_transfer = 50;
  cfg.update_epsilon = 1000;  // >= Z^is of a chopped transfer
  cfg.query_epsilon = 2000;
  const Workload w = make_banking(cfg, 10, 5);

  auto sr = ExecutionPlan::build(w.types, MethodConfig::sr_chop_cc());
  ASSERT_TRUE(sr.ok());
  auto esr = ExecutionPlan::build(w.types, MethodConfig::method2());
  ASSERT_TRUE(esr.ok());

  std::size_t sr_transfer_pieces = 0, esr_transfer_pieces = 0;
  for (std::size_t i = 0; i < w.types.size(); ++i) {
    if (w.types[i].kind != TxnKind::Update) continue;
    sr_transfer_pieces += sr.value().types[i].piece_ranges.size();
    esr_transfer_pieces += esr.value().types[i].piece_ranges.size();
  }
  EXPECT_GT(esr_transfer_pieces, sr_transfer_pieces);
}

}  // namespace
}  // namespace atp
