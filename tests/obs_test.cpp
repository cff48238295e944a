// Observability layer tests: instruments, registry snapshots, exposition
// formats, the HTTP endpoint, the atp-top renderer, and the concurrency
// contract -- 8 writer threads hammering counters and epsilon budgets while
// a reader snapshots, asserting monotone counters and no torn budget pairs.
// (This suite carries the `tsan` label: the TSan CI job runs it with the
// sanitizer watching these exact interleavings.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/http_exporter.h"
#include "obs/instruments.h"
#include "obs/metrics_registry.h"
#include "obs/top_render.h"
#include "sched/database.h"
#include "txn/registry.h"

namespace atp::obs {
namespace {

TEST(Instruments, ShardedCounterSumsAcrossThreads) {
  ShardedCounter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Instruments, GaugeSetAndAdd) {
  Gauge g;
  g.set(4.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(Registry, InstrumentsAreStableAndNamed) {
  MetricsRegistry reg;
  ShardedCounter& a = reg.counter("x.count");
  ShardedCounter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);  // same name -> same instrument
  a.add(3);
  reg.gauge("x.depth").set(7);
  reg.histogram("x.lat").record(10);
  reg.histogram("x.lat").record(20);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("x.count"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("x.count")->value, 3);
  EXPECT_DOUBLE_EQ(snap.find("x.depth")->value, 7);
  ASSERT_NE(snap.find("x.lat"), nullptr);
  EXPECT_EQ(snap.find("x.lat")->summary.count, 2u);
  EXPECT_DOUBLE_EQ(snap.find("x.lat")->summary.mean, 15);
}

TEST(Registry, SnapshotEpochsIncreaseAndSamplesAreSorted) {
  MetricsRegistry reg;
  reg.counter("b").add();
  reg.counter("a").add();
  const MetricsSnapshot s1 = reg.snapshot();
  const MetricsSnapshot s2 = reg.snapshot();
  EXPECT_LT(s1.epoch, s2.epoch);
  ASSERT_EQ(s2.samples.size(), 2u);
  EXPECT_LE(s2.samples[0].name, s2.samples[1].name);
}

TEST(Registry, CollectorsAppendAndUnregister) {
  MetricsRegistry reg;
  const auto id = reg.add_collector(
      [](SnapshotBuilder& b) { b.gauge("from.collector", 42); });
  EXPECT_NE(reg.snapshot().find("from.collector"), nullptr);
  reg.remove_collector(id);
  EXPECT_EQ(reg.snapshot().find("from.collector"), nullptr);
}

// The satellite concurrency contract: hammer counters and epsilon budget
// pairs from 8 threads while snapshotting.  Counters must be monotone
// across snapshots, and every (imported, limit) pair must be consistent --
// a charge is all-or-nothing, so imported can never exceed the limit.
// Writer 0 moves both sides of q's pair (widen the limit by one, then
// charge one), so a torn read -- a counter from one instant, a limit from
// another -- shows as a gap outside [0, 1]; the others charge their own ETs.
TEST(Registry, ConcurrentHammerMonotoneCountersNoTornBudgets) {
  constexpr int kWriters = 8;
  constexpr int kSnapshots = 200;
  constexpr Value kLimit = 1e9;

  MetricsRegistry reg;
  EtRegistry ets;
  const TxnId q = ets.begin(TxnKind::Query, EpsilonSpec::importing(0));

  // The EtRegistry collector: budget pairs captured under the seqlock.
  reg.add_collector([&](SnapshotBuilder& b) {
    for (const EtRegistry::Entry& e : ets.snapshot_all()) {
      const std::string p = "et." + std::to_string(e.id) + ".";
      b.gauge(p + "imported", double(e.imported));
      b.gauge(p + "exported", double(e.exported));
      b.gauge(p + "import_limit", double(e.spec.import_limit));
      b.gauge(p + "export_limit", double(e.spec.export_limit));
    }
  });

  // Hot-path idiom: hold the instrument reference, don't re-look it up.
  ShardedCounter& ops = reg.counter("hammer.ops");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      const TxnId own =
          t == 0 ? q : ets.begin(TxnKind::Query, EpsilonSpec::importing(kLimit));
      Value limit = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ops.add();
        if (t == 0) ets.set_spec(q, EpsilonSpec::importing(++limit));
        (void)ets.try_self_import(own, 1.0);
      }
    });
  }

  // On a single-CPU box the main thread can finish the whole snapshot loop
  // before any writer is ever scheduled; wait for the first add so the
  // final nonzero assertion (and the monotonicity walk) mean something.
  while (ops.value() == 0) std::this_thread::yield();

  double last_ops = -1;
  std::uint64_t last_epoch = 0;
  for (int i = 0; i < kSnapshots; ++i) {
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_GT(snap.epoch, last_epoch);
    last_epoch = snap.epoch;

    const Sample* ops = snap.find("hammer.ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_GE(ops->value, last_ops) << "counter went backwards";
    last_ops = ops->value;

    // Torn-pair check: the query's import side.  imported and the limit are
    // read inside one seqlock window; a torn read could see imported beyond
    // the limit mid-charge.
    const std::string qp = "et." + std::to_string(q) + ".";
    const Sample* imported = snap.find(qp + "imported");
    const Sample* limit = snap.find(qp + "import_limit");
    ASSERT_NE(imported, nullptr);
    ASSERT_NE(limit, nullptr);
    EXPECT_LE(imported->value, limit->value) << "torn epsilon-budget pair";
    EXPECT_LE(limit->value - imported->value, 1.0)
        << "torn epsilon-budget pair";
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(reg.snapshot().find("hammer.ops")->value, 0);
}

TEST(Export, JsonRoundTripsThroughTopParser) {
  MetricsRegistry reg;
  reg.counter("db.commits").add(42);
  reg.gauge("exec.queue_depth").set(5);
  for (int i = 0; i < 10; ++i) reg.histogram("exec.piece_us").record(i * 10.0);
  const MetricsSnapshot snap = reg.snapshot();

  const std::string json = snapshot_to_json(snap);
  MetricsSnapshot parsed;
  ASSERT_TRUE(parse_snapshot_json(json, &parsed));
  EXPECT_EQ(parsed.epoch, snap.epoch);
  EXPECT_EQ(parsed.samples.size(), snap.samples.size());
  EXPECT_DOUBLE_EQ(parsed.find("db.commits")->value, 42);
  EXPECT_DOUBLE_EQ(parsed.find("exec.queue_depth")->value, 5);
  const Sample* h = parsed.find("exec.piece_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->summary.count, 10u);
  EXPECT_DOUBLE_EQ(h->summary.max, 90);
}

TEST(Export, PrometheusShapes) {
  MetricsRegistry reg;
  reg.counter("db.commits").add(7);
  reg.histogram("lock.stripe.0.acquire_us").record(3);
  const std::string text = snapshot_to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE atp_db_commits counter"), std::string::npos);
  EXPECT_NE(text.find("atp_db_commits 7"), std::string::npos);
  EXPECT_NE(text.find("atp_lock_stripe_0_acquire_us_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("atp_lock_stripe_0_acquire_us_p95 3"),
            std::string::npos);
}

TEST(Export, ParserRejectsGarbage) {
  MetricsSnapshot snap;
  EXPECT_FALSE(parse_snapshot_json("not json at all", &snap));
  EXPECT_FALSE(parse_snapshot_json("{\"epoch\": 1}", &snap));
}

TEST(HttpExporter, ServesPrometheusAndJson) {
  MetricsRegistry reg;
  reg.counter("db.commits").add(9);
  ObsServer server(&reg, 0);  // port 0: kernel-assigned
  ASSERT_TRUE(server.ok());
  ASSERT_NE(server.port(), 0);

  std::string body;
  ASSERT_TRUE(http_get("127.0.0.1", server.port(), "/metrics", &body));
  EXPECT_NE(body.find("atp_db_commits 9"), std::string::npos);

  ASSERT_TRUE(http_get("127.0.0.1", server.port(), "/snapshot.json", &body));
  MetricsSnapshot parsed;
  ASSERT_TRUE(parse_snapshot_json(body, &parsed));
  EXPECT_DOUBLE_EQ(parsed.find("db.commits")->value, 9);

  ASSERT_TRUE(http_get("127.0.0.1", server.port(), "/healthz", &body));
  EXPECT_EQ(body, "ok\n");
}

TEST(HttpExporter, RegistrySwapAndDump) {
  MetricsRegistry a, b;
  a.counter("which").add(1);
  b.counter("which").add(2);
  ObsServer server(&a, 0);
  ASSERT_TRUE(server.ok());
  std::string body;
  ASSERT_TRUE(http_get("127.0.0.1", server.port(), "/snapshot.json", &body));
  MetricsSnapshot snap;
  ASSERT_TRUE(parse_snapshot_json(body, &snap));
  EXPECT_DOUBLE_EQ(snap.find("which")->value, 1);

  server.set_registry(&b);
  ASSERT_TRUE(http_get("127.0.0.1", server.port(), "/snapshot.json", &body));
  ASSERT_TRUE(parse_snapshot_json(body, &snap));
  EXPECT_DOUBLE_EQ(snap.find("which")->value, 2);

  const std::string path = ::testing::TempDir() + "/obs_dump_test.json";
  ASSERT_TRUE(server.dump_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

// End-to-end: a Database configured with a registry publishes epsilon
// telemetry, the stripe heatmap and commit counters -- the samples atp-top
// renders.
TEST(DatabaseObs, PublishesEpsAndLockSamples) {
  MetricsRegistry reg;
  DatabaseOptions o;
  o.scheduler = SchedulerKind::DC;
  o.metrics = &reg;
  Database db(o);
  db.load(1, 100);

  // An update committing past a live query's snapshot: the query's fresh
  // read charges import fuzziness from the version distance.
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(1000));
  Txn u = db.begin(TxnKind::Update, EpsilonSpec::exporting(1000));
  ASSERT_TRUE(u.write(1, 140).ok());
  ASSERT_TRUE(u.commit().ok());
  ASSERT_TRUE(q.read(1).ok());
  ASSERT_TRUE(q.commit().ok());

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("db.commits"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("db.commits")->value, 2);
  ASSERT_NE(snap.find("eps.charges_ok"), nullptr);
  EXPECT_GE(snap.find("eps.charges_ok")->value, 1);
  ASSERT_NE(snap.find("eps.retired.query.used"), nullptr);
  EXPECT_GT(snap.find("eps.retired.query.used")->value, 0)
      << "the query imported fuzziness; retirement must roll it up";
  ASSERT_NE(snap.find("lock.stripes"), nullptr);
  const auto stripes = std::size_t(snap.find("lock.stripes")->value);
  EXPECT_EQ(stripes, LockManager::kStripes);
  double total_acquires = 0;
  for (std::size_t i = 0; i < stripes; ++i) {
    const Sample* s =
        snap.find("lock.stripe." + std::to_string(i) + ".acquires");
    ASSERT_NE(s, nullptr);
    total_acquires += s->value;
  }
  EXPECT_GT(total_acquires, 0);
}

TEST(TopRender, ShowsUtilizationAndHeatmap) {
  MetricsRegistry reg;
  DatabaseOptions o;
  o.scheduler = SchedulerKind::DC;
  o.metrics = &reg;
  Database db(o);
  db.load(1, 100);
  Txn q = db.begin(TxnKind::Query, EpsilonSpec::importing(100));
  Txn u = db.begin(TxnKind::Update, EpsilonSpec::exporting(100));
  ASSERT_TRUE(u.write(1, 150).ok());
  ASSERT_TRUE(u.commit().ok());
  ASSERT_TRUE(q.read(1).ok());  // 50 past the snapshot: imports 50 of 100
  ASSERT_TRUE(q.commit().ok());

  const MetricsSnapshot snap = reg.snapshot();
  const std::string frame = render_top(snap, nullptr, {});
  EXPECT_NE(frame.find("epsilon budgets"), std::string::npos);
  EXPECT_NE(frame.find("query  import"), std::string::npos);
  EXPECT_NE(frame.find("lock stripes"), std::string::npos);
  // The query imported 50 of 100: the utilization bar must be nonzero.
  EXPECT_NE(frame.find("50.0%"), std::string::npos) << frame;
}

TEST(TopRender, RatesComeFromDeltas) {
  MetricsSnapshot prev, now;
  prev.epoch = 1;
  prev.steady_us = 0;
  prev.samples.push_back({"db.commits", Sample::Kind::Counter, 100, {}});
  now.epoch = 2;
  now.steady_us = 2'000'000;  // 2 seconds later
  now.samples.push_back({"db.commits", Sample::Kind::Counter, 300, {}});
  const std::string frame = render_top(now, &prev, {});
  // (300 - 100) commits / 2s = 100/s.
  EXPECT_NE(frame.find("100"), std::string::npos);
  EXPECT_NE(frame.find("/s"), std::string::npos);
}

TEST(TopRender, ServerPanelAppearsWithPerClassAdmission) {
  MetricsSnapshot snap;
  snap.epoch = 1;
  // Samples arrive name-sorted from the registry; keep that invariant.
  snap.samples.push_back(
      {"net.sim.dropped", Sample::Kind::Counter, 1, {}});
  snap.samples.push_back(
      {"net.sim.delivered", Sample::Kind::Counter, 40, {}});
  snap.samples.push_back({"net.sim.sent", Sample::Kind::Counter, 41, {}});
  snap.samples.push_back(
      {"srv.admission.granted.gold", Sample::Kind::Counter, 12, {}});
  snap.samples.push_back(
      {"srv.admission.rejected.gold", Sample::Kind::Counter, 3, {}});
  snap.samples.push_back(
      {"srv.sessions.accepted", Sample::Kind::Counter, 5, {}});
  snap.samples.push_back(
      {"srv.sessions.active", Sample::Kind::Gauge, 2, {}});
  const std::string frame = render_top(snap, nullptr, {});
  EXPECT_NE(frame.find("server front-end"), std::string::npos);
  EXPECT_NE(frame.find("admission gold"), std::string::npos);
  EXPECT_NE(frame.find("simnet sent/delivered/dropped"), std::string::npos);
  // Without srv.* samples the panel stays out of the frame.
  MetricsSnapshot bare;
  bare.epoch = 1;
  EXPECT_EQ(render_top(bare, nullptr, {}).find("server front-end"),
            std::string::npos);
}

TEST(TopRender, ServerPanelShowsPerClassLatencyAndSlowRequests) {
  MetricsSnapshot snap;
  snap.epoch = 1;
  // Samples arrive name-sorted from the registry; keep that invariant.
  Sample lat{"srv.request_latency.gold", Sample::Kind::Histogram, 0, {}};
  lat.summary.count = 4;
  lat.summary.mean = 150;
  lat.summary.p50 = 120;
  lat.summary.p99 = 400;
  Sample empty{"srv.request_latency.silver", Sample::Kind::Histogram, 0, {}};
  snap.samples.push_back(lat);
  snap.samples.push_back(empty);
  snap.samples.push_back(
      {"srv.sessions.accepted", Sample::Kind::Counter, 5, {}});
  snap.samples.push_back({"srv.slow_requests", Sample::Kind::Counter, 2, {}});
  const std::string frame = render_top(snap, nullptr, {});
  EXPECT_NE(frame.find("latency gold: p50/p99 120/400us"), std::string::npos)
      << frame;
  // Unused classes stay out; zero-count histograms carry no signal.
  EXPECT_EQ(frame.find("latency silver"), std::string::npos);
  EXPECT_NE(frame.find("slow requests 2"), std::string::npos);
}

TEST(TopRender, OnlineCertificationPanelRendersHealthAndViolations) {
  MetricsSnapshot snap;
  snap.epoch = 1;
  snap.samples.push_back(
      {"audit.online.degraded", Sample::Kind::Gauge, 0, {}});
  snap.samples.push_back(
      {"audit.online.dropped_events", Sample::Kind::Counter, 0, {}});
  snap.samples.push_back({"audit.online.edges", Sample::Kind::Counter, 7, {}});
  snap.samples.push_back(
      {"audit.online.esr_violations", Sample::Kind::Counter, 0, {}});
  snap.samples.push_back(
      {"audit.online.events_processed", Sample::Kind::Counter, 900, {}});
  snap.samples.push_back(
      {"audit.online.live_txns", Sample::Kind::Gauge, 3, {}});
  snap.samples.push_back(
      {"audit.online.retired_nodes", Sample::Kind::Counter, 120, {}});
  snap.samples.push_back(
      {"audit.online.sr_violations", Sample::Kind::Counter, 0, {}});
  snap.samples.push_back(
      {"audit.online.violations", Sample::Kind::Counter, 0, {}});
  snap.samples.push_back(
      {"audit.online.window_lag_us", Sample::Kind::Gauge, 850, {}});
  snap.samples.push_back(
      {"audit.online.window_nodes", Sample::Kind::Gauge, 12, {}});
  std::string frame = render_top(snap, nullptr, {});
  EXPECT_NE(frame.find("online certification  ok"), std::string::npos)
      << frame;
  EXPECT_NE(frame.find("window 12 nodes  live 3"), std::string::npos);
  EXPECT_NE(frame.find("lag 850us"), std::string::npos);

  // A violation flips the header to the alarm form.
  for (Sample& s : snap.samples) {
    if (s.name == "audit.online.violations") s.value = 2;
    if (s.name == "audit.online.sr_violations") s.value = 2;
  }
  frame = render_top(snap, nullptr, {});
  EXPECT_NE(frame.find("!! 2 VIOLATIONS"), std::string::npos) << frame;
  EXPECT_NE(frame.find("violations sr/esr 2/0"), std::string::npos);

  // Dropped events without violations: degraded confidence, not "ok".
  for (Sample& s : snap.samples) {
    if (s.name == "audit.online.violations") s.value = 0;
    if (s.name == "audit.online.sr_violations") s.value = 0;
    if (s.name == "audit.online.degraded") s.value = 1;
  }
  frame = render_top(snap, nullptr, {});
  EXPECT_NE(frame.find("DEGRADED (events dropped)"), std::string::npos);

  // Without audit.online.* samples the panel stays out of the frame.
  MetricsSnapshot bare;
  bare.epoch = 1;
  EXPECT_EQ(render_top(bare, nullptr, {}).find("online certification"),
            std::string::npos);
}

}  // namespace
}  // namespace atp::obs
