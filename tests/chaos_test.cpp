// Chaos harness: Methods 1-3 on a 3-site topology under named, seeded fault
// schedules (drop / duplicate_reorder / crash_storm / torn_wal_tail).
//
// Oracles, per run:
//   * conservation -- chopped transfers move money exactly once, so the sum
//     over all accounts is invariant however many messages were lost,
//     duplicated, reordered, or replayed across crashes;
//   * ESR certifier -- every committed ET stayed inside its epsilon budget
//     (replayed from the full trace, crashes included);
//   * recovery -- an independent recover_from_log() replay of each site's
//     WAL reproduces exactly the live committed account state (redo
//     discipline held under injected fsync failures and torn tails), and a
//     local chopped transaction cut off by a crash at any piece boundary is
//     finished from its logged continuation;
//   * determinism -- the injector's decisions are pure in (seed, identity,
//     attempt), witnessed by the scripted-feed reproducibility tests.
//
// Every failure message carries the seed: rerunning with it injects the
// identical fault schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "audit/esr_certifier.h"
#include "audit/sr_certifier.h"
#include "common/rng.h"
#include "dist/coordinator.h"
#include "dist/site.h"
#include "engine/executor.h"
#include "engine/method.h"
#include "fault/fault.h"
#include "fault/retry.h"
#include "obs/metrics_registry.h"
#include "storage/store.h"
#include "trace/tracer.h"
#include "wal/recovery.h"
#include "workload/banking.h"

namespace atp {
namespace {

using namespace std::chrono_literals;

constexpr Key kAccount0 = 10;  // lives at site 0 (the stable home site)
constexpr Key kAccount1 = 11;  // lives at site 1 (storm target)
constexpr Key kAccount2 = 12;  // lives at site 2 (storm target)
constexpr Value kInitial = 100000;

MethodConfig method_by_index(int i) {
  switch (i) {
    case 1: return MethodConfig::method1();
    case 2: return MethodConfig::method2();
    default: return MethodConfig::method3();
  }
}

/// One fully-wired 3-site rig: shared network + injector, per-site WAL
/// attached to both the database and the queue endpoint, shared tracer and
/// metrics registry.
struct ChaosRig {
  ChaosRig(const MethodConfig& method, const FaultSchedule& schedule,
           std::uint64_t seed)
      : tracer(1 << 20),
        net(3, net_options()),
        injector(seed, schedule.spec),
        torn(schedule.spec.torn_wal_tail) {
    net.set_tracer(&tracer);
    injector.attach_metrics(&registry);
    for (SiteId s = 0; s < 3; ++s) {
      DatabaseOptions dbo;
      dbo.scheduler = method.sched;
      dbo.lock_timeout = 500ms;
      dbo.wal = &wals[s];
      dbo.tracer = &tracer;
      dbo.site_id = s;
      dbo.metrics = &registry;
      sites.push_back(std::make_unique<Site>(s, net, dbo));
      sites.back()->queues().attach_wal(&wals[s]);
      sites.back()->queues().set_retry_interval(5ms);
      raw.push_back(sites.back().get());
    }
    sites[0]->db().load(kAccount0, kInitial);
    sites[1]->db().load(kAccount1, kInitial);
    sites[2]->db().load(kAccount2, kInitial);
    // Quiescent checkpoints make the initial balances durable, so a full
    // rebuild from the log starts from the right base.
    for (SiteId s = 0; s < 3; ++s) sites[s]->db().checkpoint();
    // Faults start only after setup is durable.
    net.set_fault_injector(&injector);
    if (schedule.spec.fsync_fail > 0) {
      for (SiteId s = 0; s < 3; ++s) wals[s].set_fault_injector(&injector, s);
    }
    Coordinator::install_chop_handler(raw);
    for (auto& site : sites) site->start();
  }

  ~ChaosRig() {
    stop_all();  // idempotent; tests usually stop earlier to collect traces
  }

  void stop_all() {
    for (auto& site : sites) site->stop();
  }

  static NetworkOptions net_options() {
    NetworkOptions n;
    n.one_way_latency = std::chrono::microseconds(300);
    n.jitter = std::chrono::microseconds(200);
    return n;
  }

  /// Crash-storm driver for one site: deterministic dwell times from the
  /// injector, torn-tail + full log rebuild when the schedule says so.
  void storm(SiteId s, const std::atomic<bool>& stop) {
    for (std::uint64_t cycle = 0; !stop.load(std::memory_order_relaxed);
         ++cycle) {
      std::this_thread::sleep_for(injector.storm_up_for(s, cycle));
      if (stop.load(std::memory_order_relaxed)) break;
      sites[s]->crash();
      injector.note_crash(s);
      if (torn) wals[s].tear_to_durable();
      std::this_thread::sleep_for(injector.storm_down_for(s, cycle));
      revive(s);
    }
    if (!sites[s]->up()) revive(s);
  }

  void revive(SiteId s) {
    if (torn) {
      // Total loss: rebuild the store and the queue endpoint from the
      // durable log prefix before rejoining.
      const RecoveryResult r = sites[s]->db().recover_from_wal();
      sites[s]->queues().restore_from(r);
    }
    sites[s]->recover();
    injector.note_recover(s);
  }

  Value balance(SiteId s, Key k) {
    return sites[s]->db().store().read_committed(k).value_or(-1);
  }

  Tracer tracer;
  obs::MetricsRegistry registry;
  SimNetwork net;
  FaultInjector injector;
  bool torn;
  LogDevice wals[3];
  std::vector<std::unique_ptr<Site>> sites;
  std::vector<Site*> raw;
};

DistTxnSpec chain_spec(Value amount, Value limit) {
  // 3-piece chain 0 -> 1 -> 2: debit the home account, credit one account
  // at each remote hop.  Exercises multi-hop continuations, not just a
  // single queue edge.
  DistTxnSpec spec;
  spec.kind = TxnKind::Update;
  spec.limit = limit;
  spec.pieces = {
      DistPieceSpec{0, {Access::add(kAccount0, -2 * amount, 2 * amount)}},
      DistPieceSpec{1, {Access::add(kAccount1, +amount, amount)}},
      DistPieceSpec{2, {Access::add(kAccount2, +amount, amount)}},
  };
  return spec;
}

/// One chopped transfer the client saw commit.
struct Transfer {
  std::uint64_t gtid = 0;
  Value amount = 0;
  std::uint64_t failed_attempts = 0;  ///< run_chopped errors before it
  bool done = false;                  ///< completion notice arrived
};

/// What a conservation failure needs for a diagnosis: each site's balance
/// against what the committed transfers should have left there, each
/// transfer's state, and each chain's pieces as the trace saw them commit.
/// Pieces link through queue message ids (unique across sites): piece k's
/// committed enqueue is the message piece k+1 dequeues, so a message
/// dequeued by two committed transactions is a piece applied twice, and a
/// piece-1 commit with no transfer behind it is a debit the client never
/// saw succeed.
std::string conservation_report(ChaosRig& rig,
                                const std::vector<Transfer>& transfers,
                                const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  Value moved = 0;
  for (const Transfer& t : transfers) moved += t.amount;
  const Key account_of[3] = {kAccount0, kAccount1, kAccount2};
  const Value expected[3] = {kInitial - 2 * moved, kInitial + moved,
                             kInitial + moved};
  for (SiteId s = 0; s < 3; ++s) {
    const Value b = rig.balance(s, account_of[s]);
    out << "\nsite " << s << " balance " << b << " expected " << expected[s]
        << " (off by " << b - expected[s] << ")";
  }
  for (const Transfer& t : transfers) {
    out << "\ngtid " << t.gtid << " amount " << t.amount << " failed attempts "
        << t.failed_attempts << (t.done ? " done" : " NOT done");
  }

  struct Piece {
    bool committed = false;
    std::uint64_t seq = 0;  ///< of the commit
    std::vector<std::uint64_t> dequeued, enqueued;
    std::optional<Value> wrote;  ///< last value installed on the account
  };
  std::map<std::pair<SiteId, TxnId>, Piece> txns;
  std::map<std::uint64_t, std::string> returned;  // msg -> its redeliveries
  for (const TraceEvent& e : events) {
    if (e.kind == TraceKind::QueueRedeliver) {
      returned[e.aux] += " returned@" + std::to_string(e.seq) +
                         (e.txn == kInvalidTxn ? "(crash)" : "(abort)");
      continue;
    }
    Piece& p = txns[{e.site, e.txn}];
    switch (e.kind) {
      case TraceKind::TxnCommit:
        p.committed = true;
        p.seq = e.seq;
        break;
      case TraceKind::QueueDequeue: p.dequeued.push_back(e.aux); break;
      case TraceKind::QueueEnqueue: p.enqueued.push_back(e.aux); break;
      case TraceKind::Write:
        if (e.site < 3 && e.key == account_of[e.site]) p.wrote = Value(e.a);
        break;
      default: break;
    }
  }
  // Message -> the committed transactions that dequeued it.
  std::map<std::uint64_t, std::vector<std::pair<SiteId, TxnId>>> consumers;
  std::vector<std::pair<std::uint64_t, std::pair<SiteId, TxnId>>> firsts;
  for (const auto& [id, p] : txns) {
    if (!p.committed) continue;
    for (const std::uint64_t m : p.dequeued) consumers[m].push_back(id);
    if (id.first == 0 && p.dequeued.empty() && !p.enqueued.empty()) {
      firsts.push_back({p.seq, id});
    }
  }
  std::sort(firsts.begin(), firsts.end());
  out << "\ntrace: " << events.size() << " events, " << rig.tracer.dropped()
      << " dropped; " << firsts.size() << " piece-1 commits for "
      << transfers.size() << " transfers";
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    out << "\nchain " << i;
    if (i < transfers.size()) out << " (gtid " << transfers[i].gtid << ")";
    std::pair<SiteId, TxnId> id = firsts[i].second;
    for (int piece = 1; piece <= 4; ++piece) {
      const Piece& p = txns[id];
      out << "\n  piece " << piece << " site " << id.first << " txn "
          << id.second;
      if (p.wrote) out << " wrote " << *p.wrote;
      if (p.enqueued.empty()) break;
      const std::uint64_t m = p.enqueued.front();
      const std::vector<std::pair<SiteId, TxnId>>& by = consumers[m];
      out << " -> msg " << m << " consumed by " << by.size() << " commits";
      if (by.size() > 1) {
        for (const auto& c : by) {
          out << " txn " << c.second << "@" << txns[c].seq;
        }
        out << returned[m];
      }
      if (by.empty()) break;
      id = by.front();
    }
  }
  return out.str();
}

class ChaosMatrix
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(ChaosMatrix, ConservesMoneyAndBudgetsUnderFaults) {
  const int method_index = std::get<0>(GetParam());
  const MethodConfig method = method_by_index(method_index);
  const FaultSchedule schedule = FaultSchedule::named(std::get<1>(GetParam()));
  const std::uint64_t seed =
      0xC0FFEEULL * 131 + std::uint64_t(method_index) * 17 +
      std::hash<std::string>{}(schedule.name);
  SCOPED_TRACE("method=" + method.name() + " schedule=" + schedule.name +
               " seed=" + std::to_string(seed));

  ChaosRig rig(method, schedule, seed);

  std::atomic<bool> stop{false};
  std::vector<std::thread> storms;
  if (schedule.spec.crash_storm) {
    for (SiteId s : {SiteId(1), SiteId(2)}) {
      storms.emplace_back([&rig, &stop, s] { rig.storm(s, stop); });
    }
  }

  // A concurrent query stream on the home site gives divergence control
  // something to charge: fuzzy reads of the hot debit account import the
  // in-flight updates' drift, bounded by the import limit (the ESR
  // certifier re-checks every charge from the trace afterwards).
  std::thread queries([&rig, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      Txn q = rig.sites[0]->db().begin(TxnKind::Query,
                                      EpsilonSpec::importing(500));
      if (q.read(kAccount0).ok()) {
        if (!q.commit().ok()) q.abort();
      } else {
        q.abort();
      }
      std::this_thread::sleep_for(1ms);
    }
  });

  // Client: chopped transfer chains.  Piece 1 can lose its locks to the
  // query stream, so the client retries with backoff (the chopped-client
  // contract); past piece 1, the chain completes asynchronously however
  // the storm rages.
  Coordinator coord(*rig.raw[0], rig.raw);
  const RetryPolicy policy = RetryPolicy::chop_handler();
  Rng amounts(seed * 31 + 7);
  constexpr int kTxns = 30;
  std::vector<Transfer> transfers;
  bool clients_ok = true;
  for (int i = 0; i < kTxns && clients_ok; ++i) {
    const Value amount = 1 + Value(amounts.uniform(5));
    const DistTxnSpec spec = chain_spec(amount, /*limit=*/300000);
    bool committed = false;
    for (std::uint64_t attempt = 0; attempt < 500 && !committed; ++attempt) {
      if (attempt > 0) {
        std::this_thread::sleep_for(policy.delay(attempt, std::uint64_t(i)));
      }
      auto out = coord.run_chopped(spec, 0ms);
      if (out.ok()) {
        transfers.push_back({out.value().gtid, amount, attempt, false});
        committed = true;
      }
    }
    clients_ok = committed;
    std::this_thread::sleep_for(1ms);
  }

  // Quiesce: stop the storm, revive everyone, and wait out every chain.
  stop = true;
  for (auto& t : storms) t.join();
  queries.join();
  ASSERT_TRUE(clients_ok) << "piece 1 never committed within 500 attempts";
  for (Transfer& t : transfers) {
    t.done = rig.raw[0]->wait_done(t.gtid, 30000ms);
    EXPECT_TRUE(t.done) << "gtid " << t.gtid;
  }
  rig.stop_all();
  const auto events = rig.tracer.collect();

  // Oracle 1: conservation.  Exactly-once end to end -- lost messages were
  // retransmitted, duplicates deduped, crashed pieces redelivered, never
  // double-applied.
  const Value total = rig.balance(0, kAccount0) + rig.balance(1, kAccount1) +
                      rig.balance(2, kAccount2);
  EXPECT_EQ(total, 3 * kInitial) << conservation_report(rig, transfers, events);

  // Oracle 2: recovery replay.  An independent redo of each site's log must
  // land on exactly the live committed balances (write-ahead discipline
  // survived injected fsync failures and torn tails).
  const Key account_of[3] = {kAccount0, kAccount1, kAccount2};
  for (SiteId s = 0; s < 3; ++s) {
    Store scratch;
    const RecoveryResult r = recover_from_log(rig.wals[s], scratch);
    EXPECT_TRUE(r.in_doubt.empty()) << "site " << s;
    EXPECT_EQ(scratch.read_committed(account_of[s]).value_or(-2),
              rig.balance(s, account_of[s]))
        << "site " << s;
  }

  // Oracle 3: ESR certifier over the full trace -- every committed ET's
  // imports/exports stayed within its spec, crash storms notwithstanding.
  const EsrReport esr = certify_esr(events, rig.tracer.dropped());
  EXPECT_TRUE(esr.complete);
  EXPECT_TRUE(esr.ok) << esr.describe();
  EXPECT_GT(esr.committed_ets, 0u);

  // The injector must actually have injected (every named schedule does
  // something), and the fault.* instruments must have seen it.
  EXPECT_FALSE(rig.injector.trace().empty());
  const auto snap = rig.registry.snapshot();
  double injected = 0;
  for (const char* name :
       {"fault.net.dropped", "fault.net.duplicated", "fault.net.delayed",
        "fault.wal.fsync_failed", "fault.site.crashes"}) {
    if (const obs::Sample* smp = snap.find(name); smp != nullptr) {
      injected += smp->value;
    }
  }
  EXPECT_GT(injected, 0) << "schedule " << schedule.name;
}

std::string matrix_name(
    const ::testing::TestParamInfo<std::tuple<int, std::string>>& info) {
  return "method" + std::to_string(std::get<0>(info.param)) + "_" +
         std::get<1>(info.param);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ChaosMatrix,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(FaultSchedule::known_names())),
    matrix_name);

// 2PC under heavy message loss: the retransmitting protocol rounds carry a
// single run_2pc call to commit where the old first-loss-aborts rounds
// failed almost surely (drop=0.5 over >= 4 message legs per participant).
// The SR certifier replays the history as a sanity oracle.
TEST(Chaos, TwoPcSurvivesMessageLossViaRetransmission) {
  const std::uint64_t seed = 0xD15EA5E;
  FaultSchedule schedule;
  schedule.name = "heavy_drop";
  schedule.spec.drop = 0.5;
  ChaosRig rig(MethodConfig::baseline_dc(), schedule, seed);
  SCOPED_TRACE("seed=" + std::to_string(seed));

  Coordinator coord(*rig.raw[0], rig.raw);
  Value moved = 0;
  for (int i = 0; i < 5; ++i) {
    const DistTxnSpec spec = chain_spec(10, 100000);
    auto out = coord.run_2pc(spec, /*validation_round=*/false,
                             /*decision_timeout=*/10000ms);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    EXPECT_TRUE(out.value().completed);
    moved += 10;
  }
  EXPECT_EQ(rig.balance(0, kAccount0), kInitial - 2 * moved);
  EXPECT_EQ(rig.balance(1, kAccount1), kInitial + moved);
  EXPECT_EQ(rig.balance(2, kAccount2), kInitial + moved);

  // Retransmissions actually happened and were counted.
  const auto snap = rig.registry.snapshot();
  const obs::Sample* rexmit = snap.find("retry.2pc.retransmits");
  ASSERT_NE(rexmit, nullptr);
  EXPECT_GT(rexmit->value, 0);

  rig.stop_all();
  const auto events = rig.tracer.collect();
  const SrReport sr = certify_sr(events, nullptr, rig.tracer.dropped());
  EXPECT_TRUE(sr.complete);
  EXPECT_TRUE(sr.serializable) << sr.describe();
}

// Determinism: the injector's verdicts are pure functions of (seed,
// identity, attempt) -- a scripted single-threaded feed produces the
// identical fault trace on every run with the same seed, and a different
// trace under a different seed.
TEST(Chaos, SameSeedReproducesIdenticalFaultTrace) {
  FaultSpec spec;
  spec.drop = 0.3;
  spec.duplicate = 0.2;
  spec.delay = 0.25;
  spec.max_extra_delay = std::chrono::microseconds(3000);
  spec.fsync_fail = 0.3;

  const auto run = [&spec](std::uint64_t seed) {
    FaultInjector inj(seed, spec);
    for (int i = 0; i < 300; ++i) {
      Message m;
      m.from = SiteId(i % 3);
      m.to = SiteId((i + 1) % 3);
      m.type = (i % 2) ? "qdata" : "prepare";
      m.gtid = std::uint64_t(i / 3);
      (void)inj.on_send(m);
    }
    for (SiteId s = 0; s < 3; ++s) {
      for (int k = 0; k < 30; ++k) (void)inj.fsync_fails(s);
    }
    return std::make_pair(inj.fingerprint(), inj.trace());
  };

  const auto [fp_a, trace_a] = run(7);
  const auto [fp_b, trace_b] = run(7);
  EXPECT_EQ(fp_a, fp_b);
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].describe(), trace_b[i].describe()) << "event " << i;
  }
  EXPECT_FALSE(trace_a.empty());

  // 300 sends at drop=0.3: a colliding fingerprint under a different seed
  // is negligible.
  const auto fp_c = run(8).first;
  EXPECT_NE(fp_a, fp_c);
}

// The k-th transmission of one message identity meets the same fate
// regardless of what other traffic interleaves: attempt counters are
// per-identity, not global.
TEST(Chaos, FaultDecisionsKeyOnIdentityNotGlobalOrder) {
  FaultSpec spec;
  spec.drop = 0.5;
  Message probe;
  probe.from = 0;
  probe.to = 1;
  probe.type = "qdata";
  probe.gtid = 42;

  FaultInjector quiet(9, spec);
  std::vector<bool> fates_quiet;
  for (int k = 0; k < 20; ++k) fates_quiet.push_back(quiet.on_send(probe).drop);

  FaultInjector noisy(9, spec);
  std::vector<bool> fates_noisy;
  Rng other(123);
  for (int k = 0; k < 20; ++k) {
    // Interleave unrelated traffic before each probe transmission.
    for (std::uint64_t j = 0; j < 1 + other.uniform(4); ++j) {
      Message m;
      m.from = 2;
      m.to = SiteId(other.uniform(2));
      m.type = "commit";
      m.gtid = 1000 + j;
      (void)noisy.on_send(m);
    }
    fates_noisy.push_back(noisy.on_send(probe).drop);
  }
  EXPECT_EQ(fates_quiet, fates_noisy);
}

// Crash-restart recovery of epsilon budgets (DC state): replayed committed
// state never under-counts what queries imported.  An uncommitted update
// dies with the crash (its drift was never committed state, and no query
// could see it); a committed update survives replay exactly.
TEST(Chaos, EpsilonStateSurvivesCrashRestartWithoutUndercount) {
  LogDevice wal;
  Tracer tracer(1 << 16);
  DatabaseOptions dbo;
  dbo.scheduler = SchedulerKind::DC;
  dbo.wal = &wal;
  dbo.tracer = &tracer;
  Database db(dbo);
  db.load(1, 100);
  db.checkpoint();

  // An update stages +50 while a bounded query reads the key (uncommitted
  // state is invisible, so it imports nothing), then the site crashes
  // before the update commits: replay must yield the PRE-update value --
  // resurrecting the lost write would mean the query's import charge
  // under-counted reality.
  {
    Txn u = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(u.add(1, 50).ok());
    Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
    ASSERT_TRUE(q.read(1).ok());
    ASSERT_TRUE(q.commit().ok());
    db.crash();
    // The crash-epoch guard refuses the stale commit.
    EXPECT_FALSE(u.commit().ok());
  }
  {
    const RecoveryResult r = db.recover_from_wal();
    EXPECT_EQ(db.store().read_committed(1).value(), 100);
    EXPECT_EQ(r.in_doubt.size(), 0u);
  }

  // Same dance, but the update commits before the crash: replay must carry
  // the update's full effect.
  {
    Txn u = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    ASSERT_TRUE(u.add(1, 50).ok());
    Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
    ASSERT_TRUE(q.read(1).ok());
    ASSERT_TRUE(q.commit().ok());
    ASSERT_TRUE(u.commit().ok());
    db.crash();
  }
  (void)db.recover_from_wal();
  EXPECT_EQ(db.store().read_committed(1).value(), 150);

  // The certifier agrees the whole run's charges were sound.
  const EsrReport esr = certify_esr(tracer.collect(), tracer.dropped());
  EXPECT_TRUE(esr.ok) << esr.describe();
}

// Regression (crash-path): a chopped piece whose site crashes between
// dequeue and commit must apply exactly once.  The crash-epoch guard turns
// the stale commit into an abort (so the handler does NOT forward the
// continuation for a commit that installed nothing); the message is then
// redelivered and the chain completes normally.
TEST(Chaos, CrashBetweenDequeueAndCommitDoesNotDoubleRun) {
  FaultSchedule none;
  none.name = "none";
  ChaosRig rig(MethodConfig::method3(), none, 0xBEEF);

  Coordinator coord(*rig.raw[0], rig.raw);
  auto out = coord.run_chopped(chain_spec(5, /*limit=*/300000), 0ms);
  ASSERT_TRUE(out.ok());
  std::this_thread::sleep_for(5ms);  // let the chain reach site 1
  rig.sites[1]->crash();
  std::this_thread::sleep_for(20ms);
  rig.revive(1);
  EXPECT_TRUE(rig.raw[0]->wait_done(out.value().gtid, 20000ms));
  const Value total = rig.balance(0, kAccount0) + rig.balance(1, kAccount1) +
                      rig.balance(2, kAccount2);
  EXPECT_EQ(total, 3 * kInitial);
  EXPECT_EQ(rig.balance(1, kAccount1), kInitial + 5);
  EXPECT_EQ(rig.balance(2, kAccount2), kInitial + 5);
}

/// Poll `holds` every millisecond for up to ten seconds.
bool eventually(const std::function<bool()>& holds) {
  for (int i = 0; i < 10000; ++i) {
    if (holds()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return holds();
}

// Section 4's promise across sites, through a total loss: a two-site
// transfer moves its money exactly once wherever the crash falls -- after
// piece 1 commits, after the remote site logs the delivery, after the
// remote piece commits, or after the done notice is delivered.  The crashed
// site keeps only its durable log prefix and is rebuilt from it
// (tear_to_durable, recover_from_wal, restore_from).
TEST(Chaos, TwoSiteTransferMovesMoneyOnceThroughATotalLossAtEveryStep) {
  enum Step { kPieceOneCommitted, kDeliveryLogged, kRemoteCommitted,
              kDoneDelivered };
  constexpr Value kAmount = 25;
  for (const Step step : {kPieceOneCommitted, kDeliveryLogged,
                          kRemoteCommitted, kDoneDelivered}) {
    SCOPED_TRACE("step " + std::to_string(int(step)));
    FaultSchedule none;
    none.name = "none";
    ChaosRig rig(MethodConfig::method3(), none, 0xD157 + std::uint64_t(step));
    rig.torn = true;  // revive() rebuilds the site from its durable log
    Site& ny = *rig.raw[0];
    Site& la = *rig.raw[1];
    auto crash = [&rig](SiteId s) {
      rig.sites[s]->crash();
      rig.wals[s].tear_to_durable();
    };
    DistTxnSpec spec;
    spec.kind = TxnKind::Update;
    spec.limit = 10000;
    spec.pieces = {DistPieceSpec{0, {Access::add(kAccount0, -kAmount)}},
                   DistPieceSpec{1, {Access::add(kAccount1, +kAmount)}}};
    Coordinator coord(ny, rig.raw);

    std::uint64_t gtid = 0;
    if (step == kPieceOneCommitted) {
      // The hop is lost on the way: only NY's log knows of it.
      rig.net.set_link_up(0, 1, false);
      auto out = coord.run_chopped(spec, 0ms);
      ASSERT_TRUE(out.ok());
      gtid = out.value().gtid;
      ASSERT_EQ(la.queues().stats().delivered, 0u);
      crash(0);
      rig.revive(0);
      rig.net.set_link_up(0, 1, true);
    } else {
      // A writer holding LA's account parks the remote piece on its lock
      // after the delivery, until the step is reached.
      Txn blocker = la.db().begin(TxnKind::Update, EpsilonSpec::unlimited());
      ASSERT_TRUE(blocker.write(kAccount1, kInitial).ok());
      auto out = coord.run_chopped(spec, 0ms);
      ASSERT_TRUE(out.ok());
      gtid = out.value().gtid;
      // LA's ack is lost, so NY retransmits into LA's rebuilt endpoint,
      // which must know the message from its log.
      if (step == kDeliveryLogged) rig.net.set_site_up(0, false);
      ASSERT_TRUE(eventually([&] { return la.queues().stats().delivered == 1; }));
      if (step == kDeliveryLogged) {
        ASSERT_EQ(la.queues().stats().consumed, 0u);
        crash(1);
        blocker.abort();
        rig.revive(1);
        rig.net.set_site_up(0, true);
      } else {
        // NY has its ack: from here only LA's log holds the hop.
        ASSERT_TRUE(eventually([&] { return ny.queues().outbound_backlog() == 0; }));
        if (step == kRemoteCommitted) rig.net.set_link_up(0, 1, false);
        blocker.abort();
        ASSERT_TRUE(eventually([&] { return la.queues().stats().consumed == 1; }));
        if (step == kRemoteCommitted) {
          // The done notice is lost on the way: only LA's log knows of it.
          ASSERT_FALSE(ny.wait_done(gtid, 20ms));
          crash(1);
          rig.revive(1);
          rig.net.set_link_up(0, 1, true);
        } else {
          ASSERT_TRUE(ny.wait_done(gtid, 10000ms));
          crash(0);
          rig.revive(0);
        }
      }
    }

    EXPECT_TRUE(ny.wait_done(gtid, 20000ms));
    // Let every retransmission land before counting the money.
    EXPECT_TRUE(eventually([&] {
      return ny.queues().outbound_backlog() == 0 &&
             la.queues().outbound_backlog() == 0;
    }));
    rig.stop_all();
    EXPECT_EQ(rig.balance(0, kAccount0), kInitial - kAmount);
    EXPECT_EQ(rig.balance(1, kAccount1), kInitial + kAmount);
    // And each site's log replays to what it holds.
    for (const auto& [s, key] : {std::pair{SiteId(0), kAccount0},
                                 std::pair{SiteId(1), kAccount1}}) {
      Store scratch;
      (void)recover_from_log(rig.wals[s], scratch);
      EXPECT_EQ(scratch.read_committed(key).value_or(-1), rig.balance(s, key))
          << "site " << s;
    }
  }
}

// Theorem 1 across a crash, in the local engine: once piece 1 of a chopped
// transfer commits, the transfer commits, wherever the crash falls.  The
// log becomes durable in LSN order, so every prefix of it is a legal crash
// state; the ones that matter end at a piece boundary -- the commit record
// of a piece that is not its original's last.  From each, a fresh Database
// recovers, the executor finishes the open continuations before any new
// work, and the books must balance with a clean ESR verdict.
TEST(Chaos, ChoppedTransfersFinishFromEveryPieceBoundary) {
  BankingConfig cfg;
  cfg.branches = 2;
  cfg.accounts_per_branch = 8;
  cfg.hops = 2;  // a transfer chops into three pieces: two boundaries
  cfg.branch_audit_fraction = 0.1;
  cfg.global_audit_fraction = 0;
  cfg.update_epsilon = 2000;
  cfg.query_epsilon = 4000;
  const Workload w = make_banking(cfg, 40, /*seed=*/17);
  const MethodConfig method = MethodConfig::method3(DistPolicy::Dynamic);
  auto plan = ExecutionPlan::build(w.types, method);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().types[0].piece_ranges.size(), 3u);  // xfer_0_1

  LogDevice wal;
  {
    DatabaseOptions o = Executor::database_options(method);
    o.wal = &wal;
    Database db(o);
    w.load_into(db);
    db.checkpoint();  // the opening balances go on the log
    ExecutorOptions eo;
    eo.workers = 3;
    eo.seed = 5;
    const ExecutorReport rep =
        Executor::run(db, plan.value(), w.instances, eo);
    ASSERT_EQ(rep.committed + rep.rolled_back, w.instances.size());
  }
  const std::vector<LogRecord> records = wal.records();
  ASSERT_EQ(records.front().lsn, 1u);  // untruncated: a prefix keeps its LSNs

  std::size_t boundaries = 0;
  for (const LogRecord& cut : records) {
    if (cut.type != LogRecordType::kCommit || cut.key == kInvalidTxn) continue;
    LogDevice prefix;
    for (const LogRecord& r : records) {
      if (r.lsn > cut.lsn) break;
      prefix.append(r);
    }
    Tracer tracer(1 << 14);
    DatabaseOptions o = Executor::database_options(method);
    o.wal = &prefix;
    o.tracer = &tracer;
    Database db(o);
    const RecoveryResult rec = db.recover_from_wal();
    if (rec.continuations.empty()) continue;  // cut at an original's end
    ++boundaries;
    const ExecutorReport rep = Executor::run(db, plan.value(), {});
    EXPECT_EQ(rep.resumed, rec.continuations.size())
        << "crash at LSN " << cut.lsn;
    Value money = 0;
    for (const auto& [k, v] : db.store().snapshot_committed()) money += v;
    EXPECT_EQ(money, w.total_money) << "crash at LSN " << cut.lsn;
    const EsrReport esr = certify_esr(tracer.collect(), tracer.dropped());
    EXPECT_TRUE(esr.ok) << "crash at LSN " << cut.lsn << ": "
                        << esr.describe();
  }
  // Nearly every instance is a transfer with two boundaries.
  EXPECT_GT(boundaries, w.instances.size());
}

}  // namespace
}  // namespace atp
