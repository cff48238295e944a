// Failure-injection torture: sites crash and recover at random moments
// while chopped distributed transfers stream through recoverable queues.
// Afterwards every committed transfer must have applied EXACTLY once at
// both ends (conservation) despite retransmissions, redeliveries and lost
// volatile state.  Plus a lock-manager stress suite: random concurrent
// acquire/release traffic with invariants checked throughout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "audit/esr_certifier.h"
#include "audit/sr_certifier.h"
#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/site.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "lock/lock_manager.h"
#include "trace/tracer.h"
#include "workload/banking.h"

namespace atp {
namespace {

using namespace std::chrono_literals;

constexpr Key kX = 1;
constexpr Key kY = 2;

class QueueTortureTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueTortureTest, CrashStormPreservesExactlyOnce) {
  NetworkOptions n;
  n.one_way_latency = std::chrono::microseconds(300);
  SimNetwork net(2, n);
  Tracer tracer(1 << 18);
  net.set_tracer(&tracer);
  DatabaseOptions dbo;
  dbo.scheduler = SchedulerKind::DC;
  dbo.lock_timeout = std::chrono::milliseconds(500);
  dbo.tracer = &tracer;
  DatabaseOptions dbo_ny = dbo;
  dbo_ny.site_id = 0;
  DatabaseOptions dbo_la = dbo;
  dbo_la.site_id = 1;
  Site ny(0, net, dbo_ny);
  Site la(1, net, dbo_la);
  constexpr Value kInitial = 100000;
  ny.db().load(kX, kInitial);
  la.db().load(kY, kInitial);
  const std::vector<Site*> sites{&ny, &la};
  Coordinator::install_chop_handler(sites);
  ny.queues().set_retry_interval(5ms);
  la.queues().set_retry_interval(5ms);
  ny.start();
  la.start();

  // Chaos thread: LA crashes and recovers on a random cadence.
  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    Rng rng(GetParam());
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(5 + rng.uniform(30)));
      la.crash();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(5 + rng.uniform(30)));
      la.recover();
    }
  });

  // Client: a stream of chopped transfers NY -> LA.
  Coordinator coord(ny, sites);
  Rng rng(GetParam() * 31 + 7);
  Value total_transferred = 0;
  std::vector<std::uint64_t> gtids;
  for (int i = 0; i < 60; ++i) {
    const Value amount = 1 + Value(rng.uniform(50));
    DistTxnSpec spec;
    spec.kind = TxnKind::Update;
    spec.limit = 2e9;
    spec.pieces = {DistPieceSpec{0, {Access::add(kX, -amount, amount)}},
                   DistPieceSpec{1, {Access::add(kY, +amount, amount)}}};
    auto out = coord.run_chopped(spec, 0ms);
    ASSERT_TRUE(out.ok());  // piece 1 is local; always commits
    total_transferred += amount;
    gtids.push_back(out.value().gtid);
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + rng.uniform(3)));
  }

  // Stop the chaos, let the queues drain.
  stop = true;
  chaos.join();
  la.recover();
  for (const auto gtid : gtids) {
    EXPECT_TRUE(ny.wait_done(gtid, 20000ms)) << "gtid " << gtid;
  }

  // Exactly-once: NY debited the total, LA credited it -- no piece lost to
  // a crash, none applied twice despite retransmission.
  EXPECT_EQ(ny.db().store().read_committed(kX).value(),
            kInitial - total_transferred);
  EXPECT_EQ(la.db().store().read_committed(kY).value(),
            kInitial + total_transferred);
  // And the queue accounting agrees.
  const QueueStats qs = la.queues().stats();
  EXPECT_EQ(qs.delivered, gtids.size() + 0u);  // one chop message per txn
  EXPECT_EQ(qs.consumed, gtids.size());

  ny.stop();
  la.stop();

  // Certifier oracle: replay the fuzziness ledger of the whole crash-storm
  // run -- every committed ET (on either site) must have stayed inside its
  // eps-spec, crashes and redeliveries notwithstanding.
  const auto events = tracer.collect();
  const EsrReport esr = certify_esr(events, tracer.dropped());
  EXPECT_TRUE(esr.complete);
  EXPECT_TRUE(esr.ok) << esr.describe();
  EXPECT_GT(esr.committed_ets, 0u);
  // The trace saw the chaos: crashes, recoveries, queue and network traffic.
  std::size_t crashes = 0, deliveries = 0, sends = 0;
  for (const auto& e : events) {
    crashes += (e.kind == TraceKind::SiteCrash);
    deliveries += (e.kind == TraceKind::QueueDeliver);
    sends += (e.kind == TraceKind::NetSend);
  }
  EXPECT_GE(crashes, 1u);
  EXPECT_GE(deliveries, gtids.size());
  EXPECT_GT(sends, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueTortureTest,
                         ::testing::Values(101, 202, 303));

// ---------------------------------------------------------------------------
// Lock-manager stress: random acquire/release traffic from many threads.
// Invariants: no two incompatible holders coexist; every acquire terminates
// (grant, deadlock, or timeout); release always unblocks.

class LockStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LockStressTest, RandomTrafficKeepsInvariants) {
  LockManager locks{std::chrono::milliseconds(200)};
  constexpr int kThreads = 6;
  constexpr int kKeys = 8;
  constexpr int kOpsPerThread = 300;
  std::atomic<std::uint64_t> granted{0}, denied{0};
  std::atomic<bool> violation{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(GetParam() * 97 + std::uint64_t(t));
      TxnId txn = TxnId(t + 1) * 1000;
      int held = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key key = rng.uniform(kKeys);
        const LockMode mode =
            rng.chance(0.4) ? LockMode::Exclusive : LockMode::Shared;
        const Status s = locks.acquire(txn, key, mode);
        if (s.ok()) {
          ++granted;
          ++held;
          // Invariant: we truly hold it, and if X, exclusively.
          if (!locks.holds(txn, key, mode)) violation = true;
          if (mode == LockMode::Exclusive) {
            for (const auto& h : locks.holders_of(key)) {
              if (h.txn != txn) violation = true;
            }
          }
        } else {
          ++denied;
          // Deadlock or timeout: drop everything and start a new txn.
          locks.release_all(txn);
          ++txn;
          held = 0;
          continue;
        }
        if (held > 3 || rng.chance(0.3)) {
          locks.release_all(txn);
          ++txn;
          held = 0;
        }
      }
      locks.release_all(txn);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(violation.load());
  EXPECT_GT(granted.load(), 0u);
  // After everything released, all keys must be free.
  for (Key k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(locks.acquire(999999, k, LockMode::Exclusive).ok());
  }
  locks.release_all(999999);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockStressTest, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Method-mix stress: the paper's three methods driven through the full
// multi-worker engine (striped lock table, atomic fuzziness counters,
// work-stealing scheduler) with the SR/ESR certifiers as external oracles.
// Built for the TSan CI job: >= 4 worker threads exercise every cross-thread
// edge -- stripe handoffs, cross-stripe deadlock publication, seqlock
// eps-spec reads, steal traffic -- while the certifiers prove the schedules
// stayed correct, not merely race-free.

class MethodMixStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MethodMixStressTest, CertifiersHoldUnderConcurrency) {
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 16;
  cfg.max_transfer = 40;
  cfg.branch_audit_fraction = 0.20;
  cfg.global_audit_fraction = 0.10;
  cfg.audit_scan = 10;
  cfg.zipf_theta = 0.7;
  cfg.update_epsilon = 900;
  cfg.query_epsilon = 2000;
  const Workload w = make_banking(cfg, 150, GetParam());

  const std::vector<MethodConfig> methods = {
      MethodConfig::method1(), MethodConfig::method2(),
      MethodConfig::method3()};
  for (const MethodConfig& method : methods) {
    SCOPED_TRACE(method.name());
    auto plan = ExecutionPlan::build(w.types, method);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();

    Tracer tracer(1 << 18);
    DatabaseOptions dbo =
        Executor::database_options(method, std::chrono::milliseconds(1000));
    dbo.tracer = &tracer;
    Database db(dbo);
    w.load_into(db);

    ExecutorOptions opts;
    opts.workers = 6;  // >= 4: real contention on every shared structure
    opts.seed = GetParam() * 131 + 11;
    opts.op_delay_min_us = 20;
    opts.op_delay_max_us = 80;
    const ExecutorReport r = Executor::run(db, plan.value(), w.instances, opts);

    EXPECT_GT(r.committed, 0u);
    EXPECT_EQ(r.budget_violations, 0u);
    // Realized audit error must sit inside the promised eps(Q).
    EXPECT_LE(r.query_error.max, double(cfg.query_epsilon));

    const auto events = tracer.collect();
    const std::uint64_t dropped = tracer.dropped();
    // ESR oracle (all methods): replay the fuzziness ledger.
    const EsrReport esr = certify_esr(events, dropped);
    EXPECT_TRUE(esr.complete);
    EXPECT_TRUE(esr.ok) << esr.describe();
    EXPECT_GT(esr.committed_ets, 0u);
    // SR oracle (Method 2 runs on CC): each piece is an ET under 2PL, so
    // the committed projection must be conflict-serializable at ET
    // granularity.  (Original-transaction SR is NOT promised here: that is
    // exactly what ESR-chopping trades for the eps budget -- merging pieces
    // back into originals would surface the bought-and-paid-for cycles.)
    if (method.sched == SchedulerKind::CC) {
      const SrReport sr = certify_sr(events, nullptr, dropped);
      EXPECT_TRUE(sr.complete);
      EXPECT_TRUE(sr.serializable) << sr.describe();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MethodMixStressTest,
                         ::testing::Values(17, 29));

}  // namespace
}  // namespace atp
