// Component micro-benchmarks (google-benchmark): the building blocks whose
// costs underlie the system-level numbers -- lock acquisition and release,
// the store's update read-modify-write and publication, the ET registry
// round trip, a WAL-backed sync commit, a chopped transfer
// over the WAL, trace recording and online-certifier ingest, the wire
// protocol's frame codec and one server round trip over loopback TCP,
// chopping-graph analysis, and the finest-chopping searches.
//
// The obs group doubles as the instrumentation-overhead experiment: build
// once with -DATP_OBS=ON and once with OFF and compare
// BM_LockAcquireReleaseUncontended / BM_TxnCommitCycle /
// BM_TxnCommitCycleWithMetrics (EXPERIMENTS.md records the numbers; the
// budget is <2% on the enabled build).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "audit/online_certifier.h"
#include "chop/analyzer.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "engine/piece_runner.h"
#include "engine/plan.h"
#include "lock/lock_manager.h"
#include "obs/metrics_registry.h"
#include "sched/database.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/store.h"
#include "trace/tracer.h"
#include "txn/registry.h"
#include "wal/log.h"
#include "workload/banking.h"

namespace atp {
namespace {

void BM_LockAcquireReleaseUncontended(benchmark::State& state) {
  // An X lock granted on first evaluation, released through the ET's
  // touched-stripe mask.  Each thread locks its own key in its own stripe,
  // so with 4 threads any slowdown over 1 is a lock that is global to the
  // lock manager rather than to the stripe.
  static LockManager locks;
  Key key = 1;
  while (LockManager::stripe_index(key) != std::size_t(state.thread_index())) {
    ++key;
  }
  const LockManager::StripeMask mask = LockManager::stripe_bit(key);
  TxnId txn = (TxnId(state.thread_index()) << 40) + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(locks.acquire(txn, key, LockMode::Exclusive));
    locks.release_all(txn, mask);
    ++txn;
  }
}
BENCHMARK(BM_LockAcquireReleaseUncontended)->Threads(1)->Threads(4);

void BM_LockSharedReentrant(benchmark::State& state) {
  LockManager locks;
  (void)locks.acquire(1, 1, LockMode::Shared);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locks.acquire(1, 1, LockMode::Shared));
  }
}
BENCHMARK(BM_LockSharedReentrant);

void BM_ReleaseAll(benchmark::State& state) {
  // An update ET that X-locks two keys and releases at commit.  Arg 1
  // releases through the ET's touched-stripe mask (two stripes visited),
  // arg 0 through kAllStripes (the full sixteen-stripe sweep), so the
  // difference is what the mask saves per ET.
  LockManager locks;
  const Key a = 1, b = 2;
  const LockManager::StripeMask mask =
      state.range(0) != 0
          ? LockManager::StripeMask(LockManager::stripe_bit(a) |
                                    LockManager::stripe_bit(b))
          : LockManager::kAllStripes;
  TxnId txn = 1;
  for (auto _ : state) {
    (void)locks.acquire(txn, a, LockMode::Exclusive);
    (void)locks.acquire(txn, b, LockMode::Exclusive);
    locks.release_all(txn, mask);
    ++txn;
  }
}
BENCHMARK(BM_ReleaseAll)->ArgName("touched_only")->Arg(0)->Arg(1);

void BM_StoreStageAddPublish(benchmark::State& state) {
  // The store's share of one update op and its commit: the read-modify-write
  // an ET's add makes (one map lookup, one stripe lock) and the version
  // publication under the commit mutex.  Each thread adds to its own key,
  // so threads meet only on the commit mutex.
  static Store store;
  const Key key = Key(state.thread_index()) + 1;
  if (state.thread_index() == 0) {
    for (Key k = 1; k <= Key(state.threads()); ++k) (void)store.load(k, 0);
  }
  const Key keys[] = {key};
  TxnId txn = (TxnId(state.thread_index()) << 40) + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.stage_add(txn, key, 1));
    benchmark::DoNotOptimize(store.commit_publish(txn, keys));
    ++txn;
  }
}
BENCHMARK(BM_StoreStageAddPublish)->Threads(1)->Threads(4);

void BM_RegistryBeginEndCommit(benchmark::State& state) {
  // One ET's registry round trip: register at begin, retire at commit.
  // Each thread's ETs land on shards by id, so threads rarely meet on a
  // shard mutex.
  static EtRegistry reg;
  for (auto _ : state) {
    const TxnId id = reg.begin(TxnKind::Update, EpsilonSpec::serializable());
    benchmark::DoNotOptimize(reg.end_commit(id));
  }
}
BENCHMARK(BM_RegistryBeginEndCommit)->Threads(1)->Threads(4);

void BM_SyncCommitWithWal(benchmark::State& state) {
  // A one-key update ET committed with CommitWait::kSync through the WAL
  // and the group committer (zero simulated fsync latency), each thread on
  // its own key: the shared commit path without lock contention.
  static LogDevice wal;
  static Database db([] {
    DatabaseOptions o;
    o.wal = &wal;
    return o;
  }());
  const Key key = Key(state.thread_index()) + 1;
  if (state.thread_index() == 0) {
    for (Key k = 1; k <= Key(state.threads()); ++k) db.load(k, 0);
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    (void)t.add(key, 1);
    benchmark::DoNotOptimize(t.commit());
    // Keep the in-memory log small: drop what is already durable.
    if (state.thread_index() == 0 && ++n % 4096 == 0) {
      wal.truncate_before(wal.durable_lsn());
    }
  }
}
BENCHMARK(BM_SyncCommitWithWal)->Threads(1)->Threads(4);

void BM_ChoppedTransferWithWal(benchmark::State& state) {
  // The WAL append + group flush layer as a chopped transaction pays it: a
  // two-piece transfer through PieceRunner, piece 1 committing kAsync with
  // its continuation in the commit record, piece 2 waiting for the group
  // flush (zero simulated fsync latency).  Each thread moves money between
  // its own two keys: the commit path is shared, no lock is.
  static LogDevice wal;
  static Database db([] {
    DatabaseOptions o;
    o.scheduler = SchedulerKind::DC;
    o.wal = &wal;
    return o;
  }());
  static const ExecutionPlan plan = [] {
    const TxnProgram transfer = ProgramBuilder("transfer", TxnKind::Update)
                                    .add(1, -1, 10)
                                    .add(2, +1, 10)
                                    .epsilon(100)
                                    .build();
    return ExecutionPlan::build({transfer}, MethodConfig::method1()).value();
  }();
  const Key from = 2 * Key(state.thread_index()) + 1;
  if (state.thread_index() == 0) {
    for (Key k = 1; k <= 2 * Key(state.threads()); ++k) db.load(k, 1000);
  }
  TxnInstance transfer;
  transfer.ops = {Access::add(from, -1, 10), Access::add(from + 1, +1, 10)};
  PieceRunner runner(db, nullptr);
  Rng rng(from);
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runner.run(plan.types[0], transfer, DistPolicy::Static, rng));
    // Keep the in-memory log small: drop what is already durable.
    if (state.thread_index() == 0 && ++n % 4096 == 0) {
      wal.truncate_before(wal.durable_lsn());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChoppedTransferWithWal)->Threads(1)->Threads(4);

void BM_TracerRecord(benchmark::State& state) {
  // One Tracer::record on a warm ring, as every instrumented call site pays
  // it: the in-flight flag, the global seq ticket (contended from 3
  // threads), the clock read and the slot write.  draining=1 adds a
  // subscriber that drains every 2 ms on a thread of its own, the online
  // certifier's default poll_interval, so its copies race the recorders.
  static std::unique_ptr<Tracer> tracer;
  static std::atomic<bool> stop{false};
  static std::thread drainer;
  if (state.thread_index() == 0) {
    tracer = std::make_unique<Tracer>(std::size_t(1) << 16);
    if (state.range(0) != 0) {
      stop.store(false);
      drainer = std::thread([] {
        auto sub = tracer->subscribe();
        TraceSubscription::Batch batch;
        while (!stop.load()) {
          sub->drain(batch);
          benchmark::DoNotOptimize(batch.events.data());
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }
  }
  const TxnId txn = TxnId(state.thread_index()) + 1;
  Key key = 0;
  for (auto _ : state) {
    tracer->record(TraceKind::Read, 0, txn, ++key, 1.0, 0, 1);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    if (drainer.joinable()) {
      stop.store(true);
      drainer.join();
    }
    tracer.reset();
  }
}
BENCHMARK(BM_TracerRecord)
    ->ArgName("draining")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(3)
    ->UseRealTime();

/// A banking run recorded once: the Table-1 mix on 48 hot accounts run by
/// 3 workers, as perfbench's engine_hot_certify runs it (DC, Method 3) when
/// `cc` is false, or under strict 2PL (baseline SR) when it is true.
Tracer& recorded_banking_trace(bool cc) {
  static std::unique_ptr<Tracer> traces[2];
  std::unique_ptr<Tracer>& tracer = traces[cc ? 1 : 0];
  if (tracer) return *tracer;
  tracer = std::make_unique<Tracer>(std::size_t(1) << 18);
  BankingConfig cfg;
  cfg.accounts_per_branch = 24;
  cfg.max_transfer = 50;
  cfg.update_epsilon = 1200;
  cfg.query_epsilon = 2500;
  cfg.branch_audit_fraction = 0.15;
  cfg.global_audit_fraction = 0.08;
  cfg.audit_scan = 12;
  cfg.zipf_theta = 0.6;
  const Workload w = make_banking(cfg, 3000, 11);
  const MethodConfig method =
      cc ? MethodConfig::baseline_sr() : MethodConfig::method3();
  DatabaseOptions dbo = Executor::database_options(method);
  dbo.tracer = tracer.get();
  Database db(dbo);
  w.load_into(db);
  ExecutorOptions eopts;
  eopts.workers = 3;
  (void)Executor::run(db, ExecutionPlan::build(w.types, method).value(),
                      w.instances, eopts);
  return *tracer;
}

void BM_OnlineCertifierIngest(benchmark::State& state) {
  // Certifier cost per trace event: each iteration subscribes a fresh
  // OnlineCertifier to a pre-recorded banking trace and pumps it once --
  // drain, seq merge, ledger replay (and the serialization graph with
  // sr=1), retirement.  per_event (seconds) is the figure to compare with
  // BM_TracerRecord's per-event cost.
  const bool sr = state.range(0) != 0;
  Tracer& trace = recorded_banking_trace(sr);
  const double events = double(trace.size());
  OnlineCertifierOptions opts;
  opts.check_sr = sr;
  for (auto _ : state) {
    OnlineCertifier cert(trace, opts);
    cert.pump();
    benchmark::DoNotOptimize(cert.stats().events_processed);
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(events));
  state.counters["events"] = events;
  state.counters["per_event"] = benchmark::Counter(
      events, benchmark::Counter::kIsIterationInvariantRate |
                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_OnlineCertifierIngest)->ArgName("sr")->Arg(0)->Arg(1);

void BM_ProtocolEncodeDecode(benchmark::State& state) {
  // One wire frame out and back: encode an add request into a reused
  // buffer, then decode it, as the client and the session each do once per
  // request.
  server::WireMessage req;
  req.kind = server::MsgKind::kOp;
  req.txn = 7;
  req.op = std::uint8_t(server::OpCode::kAdd);
  req.key = 1234;
  req.value = -5;
  std::string buf;
  server::WireMessage out;
  for (auto _ : state) {
    ++req.seq;
    buf.clear();
    server::encode_frame(req, &buf);
    std::size_t consumed = 0;
    benchmark::DoNotOptimize(server::decode_frame(buf, &out, &consumed));
    benchmark::DoNotOptimize(out.seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProtocolEncodeDecode);

void BM_ServerPingRoundTrip(benchmark::State& state) {
  // kPings from state.range(0) blocking TCP clients on loopback to an
  // in-process AtpServer with 2 executing threads (wire_oltp's setting) and
  // back: the server's per-request plumbing -- poll, frame decode,
  // dispatch, reply -- with no engine work.  This thread is the timed
  // client; the others ping flat out beside it and their pings count too,
  // so items/s is the server's total ping rate.  Wall time, since the
  // clients mostly wait.
  const auto clients = std::size_t(state.range(0));
  Database db(DatabaseOptions{});
  server::ServerOptions so;
  so.workers = 2;
  server::AtpServer srv(db, std::make_unique<server::TcpTransport>(0),
                        std::move(so));
  bool up = srv.ok();
  std::vector<std::unique_ptr<server::Client>> cs;
  for (std::size_t i = 0; i < clients && up; ++i) {
    cs.push_back(std::make_unique<server::Client>(
        std::make_unique<server::TcpByteChannel>("127.0.0.1", srv.port())));
    up = cs.back()->hello("gold").ok();
  }
  if (!up) {
    state.SkipWithError("server did not come up");
    return;
  }
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> others{0};
  std::vector<std::thread> pingers;
  for (std::size_t i = 1; i < clients; ++i) {
    pingers.emplace_back([&, i] {
      while (!stop.load(std::memory_order_relaxed) && cs[i]->ping().ok()) {
        others.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const std::int64_t others_before = others.load();
  for (auto _ : state) {
    if (!cs[0]->ping().ok()) {
      state.SkipWithError("ping failed");
      break;
    }
  }
  const std::int64_t others_during = others.load() - others_before;
  stop = true;
  for (std::thread& t : pingers) t.join();
  state.SetItemsProcessed(state.iterations() + others_during);
  for (auto& c : cs) c->close();
  srv.stop();
}
BENCHMARK(BM_ServerPingRoundTrip)->Arg(1)->Arg(2)->UseRealTime();

void BM_TxnCommitCycle(benchmark::State& state) {
  Database db(DatabaseOptions{});
  db.load(1, 100);
  db.load(2, 100);
  for (auto _ : state) {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    (void)t.add(1, -5);
    (void)t.add(2, +5);
    (void)t.commit();
  }
}
BENCHMARK(BM_TxnCommitCycle);

void BM_DcFuzzyRead(benchmark::State& state) {
  DatabaseOptions o;
  o.scheduler = SchedulerKind::DC;
  Database db(o);
  db.load(1, 100);
  Txn u = db.begin(TxnKind::Update, EpsilonSpec::unlimited());
  (void)u.write(1, 150);  // a standing dirty value
  for (auto _ : state) {
    Txn q = db.begin(TxnKind::Query, EpsilonSpec::unlimited());
    benchmark::DoNotOptimize(q.read(1));
    (void)q.commit();
  }
  u.abort();
}
BENCHMARK(BM_DcFuzzyRead);

void BM_TxnCommitCycleWithMetrics(benchmark::State& state) {
  // Same cycle as BM_TxnCommitCycle but with a registry attached: measures
  // what a Database pays for live telemetry (commit counters + the
  // registered collector, which costs nothing until snapshot time).
  obs::MetricsRegistry reg;
  DatabaseOptions o;
  o.metrics = &reg;
  Database db(o);
  db.load(1, 100);
  db.load(2, 100);
  for (auto _ : state) {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    (void)t.add(1, -5);
    (void)t.add(2, +5);
    (void)t.commit();
  }
}
BENCHMARK(BM_TxnCommitCycleWithMetrics);

void BM_ObsShardedCounterAdd(benchmark::State& state) {
  static obs::ShardedCounter counter;
  for (auto _ : state) {
    counter.add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsShardedCounterAdd)->Threads(1)->Threads(8);

void BM_ObsRegistrySnapshot(benchmark::State& state) {
  // Snapshot cost with a realistic population: a Database's collector
  // (16-stripe heatmap + eps roll-ups) plus a few push instruments.
  obs::MetricsRegistry reg;
  DatabaseOptions o;
  o.metrics = &reg;
  Database db(o);
  db.load(1, 100);
  for (int i = 0; i < 64; ++i) {
    Txn t = db.begin(TxnKind::Update, EpsilonSpec::serializable());
    (void)t.add(1, 1);
    (void)t.commit();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.snapshot());
  }
}
BENCHMARK(BM_ObsRegistrySnapshot);

void BM_BuildChoppingGraph(benchmark::State& state) {
  BankingConfig cfg;
  cfg.branches = std::size_t(state.range(0));
  cfg.branch_audit_fraction = 0.2;
  cfg.global_audit_fraction = 0.1;
  const Workload w = make_banking(cfg, 1, 1);
  const Chopping c = Chopping::finest_candidate(w.types);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_chopping_graph(w.types, c));
  }
}
BENCHMARK(BM_BuildChoppingGraph)->Arg(2)->Arg(4)->Arg(8);

void BM_FinestSrChopping(benchmark::State& state) {
  BankingConfig cfg;
  cfg.branches = std::size_t(state.range(0));
  cfg.branch_audit_fraction = 0.2;
  cfg.global_audit_fraction = 0.1;
  const Workload w = make_banking(cfg, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(finest_sr_chopping(w.types));
  }
}
BENCHMARK(BM_FinestSrChopping)->Arg(2)->Arg(4);

void BM_FinestEsrChopping(benchmark::State& state) {
  BankingConfig cfg;
  cfg.branches = std::size_t(state.range(0));
  cfg.branch_audit_fraction = 0.2;
  cfg.global_audit_fraction = 0.1;
  cfg.update_epsilon = 1e6;  // generous: the search keeps everything chopped
  cfg.query_epsilon = 1e6;
  const Workload w = make_banking(cfg, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(finest_esr_chopping(w.types));
  }
}
BENCHMARK(BM_FinestEsrChopping)->Arg(2)->Arg(4);

}  // namespace
}  // namespace atp

BENCHMARK_MAIN();
