// End-to-end integration: the three workload generators through the full
// stack (plan -> executor -> metrics), cross-checking each domain's oracle.
#include <gtest/gtest.h>

#include <unordered_set>

#include "audit/esr_certifier.h"
#include "audit/sr_certifier.h"
#include "engine/executor.h"
#include "trace/tracer.h"
#include "workload/airline.h"
#include "workload/banking.h"
#include "workload/orders.h"
#include "workload/payroll.h"

namespace atp {
namespace {

TEST(BankingWorkload, GeneratorShapesAreSane) {
  BankingConfig cfg;
  cfg.branches = 3;
  cfg.accounts_per_branch = 10;
  cfg.branch_audit_fraction = 0.2;
  cfg.global_audit_fraction = 0.1;
  const Workload w = make_banking(cfg, 200, 99);
  EXPECT_EQ(w.initial_data.size(), 30u);
  EXPECT_EQ(w.instances.size(), 200u);
  EXPECT_EQ(w.total_money, 30 * cfg.initial_balance);
  std::size_t audits = 0, transfers = 0, globals = 0;
  for (const auto& inst : w.instances) {
    const auto& type = w.types[inst.type_index];
    if (type.kind == TxnKind::Update) {
      ++transfers;
      ASSERT_EQ(inst.ops.size(), 2u);
      EXPECT_EQ(inst.ops[0].delta, -inst.ops[1].delta);  // conservation
      EXPECT_LE(std::abs(inst.ops[0].delta), cfg.max_transfer);
    } else if (inst.has_expected_result) {
      ++globals;
      EXPECT_EQ(inst.ops.size(), 30u);  // reads every account
      EXPECT_EQ(inst.expected_result, w.total_money);
    } else {
      ++audits;
      EXPECT_EQ(inst.ops.size(), cfg.audit_scan);
    }
  }
  EXPECT_GT(transfers, 100u);
  EXPECT_GT(audits, 10u);
  EXPECT_GT(globals, 5u);
}

TEST(BankingWorkload, DeterministicForSameSeed) {
  BankingConfig cfg;
  const Workload a = make_banking(cfg, 50, 42);
  const Workload b = make_banking(cfg, 50, 42);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].type_index, b.instances[i].type_index);
    ASSERT_EQ(a.instances[i].ops.size(), b.instances[i].ops.size());
    for (std::size_t j = 0; j < a.instances[i].ops.size(); ++j) {
      EXPECT_EQ(a.instances[i].ops[j].item, b.instances[i].ops[j].item);
      EXPECT_EQ(a.instances[i].ops[j].delta, b.instances[i].ops[j].delta);
    }
  }
}

TEST(BankingWorkload, RollbacksHappenAtConfiguredRate) {
  BankingConfig cfg;
  cfg.rollback_probability = 0.2;
  cfg.branch_audit_fraction = 0;
  cfg.global_audit_fraction = 0;
  const Workload w = make_banking(cfg, 1000, 5);
  std::size_t rollbacks = 0;
  for (const auto& inst : w.instances) rollbacks += inst.take_rollback;
  EXPECT_NEAR(double(rollbacks) / 1000.0, 0.2, 0.05);
}

TEST(AirlineWorkload, ReservationsRespectCapsAndRun) {
  AirlineConfig cfg;
  cfg.flights = 8;
  cfg.price_cap = 300;
  const Workload w = make_airline(cfg, 150, 17);
  for (const auto& inst : w.instances) {
    if (w.types[inst.type_index].kind != TxnKind::Update) continue;
    EXPECT_EQ(inst.ops[0].delta, -1);                 // one seat
    EXPECT_GT(inst.ops[1].delta, 0);                  // positive fare
    EXPECT_LE(inst.ops[1].delta, cfg.price_cap);
  }

  const MethodConfig method = MethodConfig::method3();
  auto plan = ExecutionPlan::build(w.types, method);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  Database db(Executor::database_options(method));
  w.load_into(db);
  ExecutorOptions opts;
  opts.workers = 4;
  const auto report = Executor::run(db, plan.value(), w.instances, opts);
  EXPECT_EQ(report.committed, w.instances.size());
  EXPECT_EQ(report.budget_violations, 0u);

  // Seats sold == revenue entries: sum(seats) + reservations == initial.
  Value seats = 0, revenue = 0;
  std::size_t reservations = 0;
  for (const auto& inst : w.instances) {
    if (w.types[inst.type_index].kind == TxnKind::Update) ++reservations;
  }
  for (std::size_t f = 0; f < cfg.flights; ++f) {
    seats += db.store().read_committed(airline_seats_key(f)).value();
    revenue += db.store().read_committed(airline_revenue_key(f)).value();
  }
  EXPECT_EQ(seats, cfg.seats_per_flight * Value(cfg.flights) -
                       Value(reservations));
  EXPECT_GT(revenue, 0);
}

TEST(OrdersWorkload, NewOrdersChopAndStockBalances) {
  OrdersConfig cfg;
  cfg.districts = 3;
  cfg.items_per_district = 16;
  cfg.lines_per_order = 3;
  const Workload w = make_orders(cfg, 150, 44);

  const MethodConfig method = MethodConfig::method3(DistPolicy::Dynamic);
  auto plan = ExecutionPlan::build(w.types, method);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  // Orders commute (all Adds), so ESR keeps them in multiple pieces despite
  // the cross-cutting revenue report.
  std::size_t max_pieces = 0;
  for (const auto& tp : plan.value().types) {
    if (tp.type.kind == TxnKind::Update) {
      max_pieces = std::max(max_pieces, tp.piece_ranges.size());
    }
  }
  EXPECT_GT(max_pieces, 1u);

  Database db(Executor::database_options(method));
  w.load_into(db);
  ExecutorOptions opts;
  opts.workers = 4;
  const auto report = Executor::run(db, plan.value(), w.instances, opts);
  EXPECT_EQ(report.committed, w.instances.size());
  EXPECT_EQ(report.budget_violations, 0u);

  // Stock decrements == sum of committed order quantities; order counts ==
  // number of committed new-order instances per district.
  Value expected_count = 0, stock_taken_expected = 0;
  for (const auto& inst : w.instances) {
    if (w.types[inst.type_index].kind != TxnKind::Update) continue;
    ++expected_count;
    for (const auto& op : inst.ops) {
      if (op.type == AccessType::Add && op.delta < 0) {
        stock_taken_expected += -op.delta;
      }
    }
  }
  Value count = 0, stock = 0;
  for (std::size_t d = 0; d < cfg.districts; ++d) {
    count += db.store().read_committed(orders_count_key(d)).value();
    for (std::size_t i = 0; i < cfg.items_per_district; ++i) {
      stock += db.store().read_committed(orders_stock_key(d, i)).value();
    }
  }
  EXPECT_EQ(count, expected_count);
  EXPECT_EQ(stock, cfg.initial_stock * Value(cfg.districts) *
                           Value(cfg.items_per_district) -
                       stock_taken_expected);
}

TEST(PayrollWorkload, RaisesConserveTotalCompensation) {
  PayrollConfig cfg;
  cfg.departments = 3;
  cfg.employees_per_dept = 8;
  const Workload w = make_payroll(cfg, 120, 23);

  const MethodConfig method = MethodConfig::method1(DistPolicy::Dynamic);
  auto plan = ExecutionPlan::build(w.types, method);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  Database db(Executor::database_options(method));
  w.load_into(db);
  ExecutorOptions opts;
  opts.workers = 4;
  const auto report = Executor::run(db, plan.value(), w.instances, opts);
  EXPECT_EQ(report.committed, w.instances.size());
  EXPECT_EQ(report.budget_violations, 0u);
  EXPECT_LE(report.query_error.max, cfg.query_epsilon + 1e-9);

  Value sum = 0;
  for (const auto& [k, v] : db.store().snapshot_committed()) sum += v;
  EXPECT_EQ(sum, w.total_money);
}

TEST(Integration, DynamicDistributionNeverViolatesWhereStaticHolds) {
  // Both policies must satisfy Condition 2 on the same stream: every
  // instance commits or takes its programmed rollback, and no committed
  // transaction's Z_t exceeds its Limit_t.
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 8;
  cfg.global_audit_fraction = 0.2;
  cfg.update_epsilon = 600;
  cfg.query_epsilon = 900;
  const Workload w = make_banking(cfg, 150, 31);

  for (const DistPolicy policy : {DistPolicy::Static, DistPolicy::Dynamic}) {
    const MethodConfig method = MethodConfig::method3(policy);
    auto plan = ExecutionPlan::build(w.types, method);
    ASSERT_TRUE(plan.ok());
    Database db(Executor::database_options(method));
    w.load_into(db);
    ExecutorOptions opts;
    opts.workers = 4;
    opts.seed = 77;
    const auto report = Executor::run(db, plan.value(), w.instances, opts);
    EXPECT_EQ(report.committed + report.rolled_back, w.instances.size());
    EXPECT_EQ(report.budget_violations, 0u) << to_string(policy);
  }
}

TEST(Integration, CertifiersAuditEveryMethod) {
  // The trace-replay certifiers as independent oracles over the full stack:
  // CC histories must be conflict-serializable at piece granularity, and the
  // fuzziness ledger of Methods 1-3 must respect every committed eps-spec.
  // The trace also pins the design's premise: queries read versions, so only
  // update ETs ever appear in lock-table traffic, under CC and DC alike.
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 8;
  cfg.branch_audit_fraction = 0.2;
  cfg.global_audit_fraction = 0.1;
  const Workload w = make_banking(cfg, 120, 53);

  for (const MethodConfig method :
       {MethodConfig::baseline_sr(), MethodConfig::method1(),
        MethodConfig::method2(), MethodConfig::method3()}) {
    Tracer tracer(1 << 18);
    auto plan = ExecutionPlan::build(w.types, method);
    ASSERT_TRUE(plan.ok());
    DatabaseOptions dbo = Executor::database_options(method);
    dbo.tracer = &tracer;
    Database db(dbo);
    w.load_into(db);
    ExecutorOptions opts;
    opts.workers = 4;
    opts.seed = 11;
    const auto report = Executor::run(db, plan.value(), w.instances, opts);
    EXPECT_EQ(report.committed + report.rolled_back, w.instances.size());
    EXPECT_EQ(report.budget_violations, 0u);

    const auto events = tracer.collect();
    const std::uint64_t dropped = tracer.dropped();
    ASSERT_EQ(dropped, 0u) << method.name();
    std::unordered_set<TxnId> updates;
    std::size_t lock_events = 0;
    for (const TraceEvent& e : events) {
      if (e.kind == TraceKind::TxnBegin && e.aux == 1) updates.insert(e.txn);
      if (e.kind != TraceKind::LockAcquire && e.kind != TraceKind::LockWait &&
          e.kind != TraceKind::LockDeadlock) {
        continue;
      }
      ++lock_events;
      EXPECT_TRUE(updates.count(e.txn))
          << method.name() << ": " << to_string(e.kind) << " by non-update ET "
          << e.txn;
    }
    EXPECT_GT(lock_events, 0u) << method.name();
    if (method.sched == SchedulerKind::CC) {
      const SrReport sr = certify_sr(events, nullptr, dropped);
      EXPECT_TRUE(sr.complete) << method.name();
      EXPECT_TRUE(sr.serializable)
          << method.name() << ": " << sr.describe();
      EXPECT_GT(sr.committed_txns, 0u);
    }
    const EsrReport esr = certify_esr(events, dropped);
    EXPECT_TRUE(esr.complete) << method.name();
    EXPECT_TRUE(esr.ok) << method.name() << ": " << esr.describe();
    EXPECT_GT(esr.committed_ets, 0u);
  }
}

TEST(Integration, SerialExecutionMatchesAnyMethodFinalState) {
  // With one worker there is no concurrency: every method must produce the
  // exact same final database state as the serial ground truth.
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 6;
  cfg.global_audit_fraction = 0.1;
  cfg.rollback_probability = 0.1;
  const Workload w = make_banking(cfg, 60, 13);

  std::unordered_map<Key, Value> reference;
  bool first = true;
  for (const MethodConfig method :
       {MethodConfig::baseline_sr(), MethodConfig::method1(),
        MethodConfig::method2(), MethodConfig::method3()}) {
    auto plan = ExecutionPlan::build(w.types, method);
    ASSERT_TRUE(plan.ok());
    Database db(Executor::database_options(method));
    w.load_into(db);
    ExecutorOptions opts;
    opts.workers = 1;  // serial
    const auto report = Executor::run(db, plan.value(), w.instances, opts);
    EXPECT_EQ(report.committed + report.rolled_back, w.instances.size());
    auto snap = db.store().snapshot_committed();
    if (first) {
      reference = snap;
      first = false;
    } else {
      EXPECT_EQ(snap, reference) << "method " << method.name();
    }
  }
}

}  // namespace
}  // namespace atp
