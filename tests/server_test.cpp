// Session + admission lifecycle tests for the server front-end.
//
// Most suites run over SimTransport/SimByteChannel -- the deterministic
// SimNetwork backend -- so session behaviour (handshake, admission grants,
// disconnect teardown, budget release) is tested without sockets; one suite
// drives the real TcpTransport end-to-end with concurrent clients.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "sched/database.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "server/transport.h"

namespace atp::server {
namespace {

using namespace std::chrono_literals;

constexpr SiteId kServerSite = 0;

NetworkOptions fast_net() {
  NetworkOptions o;
  o.one_way_latency = std::chrono::microseconds(200);
  return o;
}

/// Spin until `pred` holds (teardown and gauge updates are asynchronous).
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds limit = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

Client sim_client(SimNetwork& net, SiteId site) {
  return Client(std::make_unique<SimByteChannel>(net, site, kServerSite));
}

TEST(Server, HappyPathOverSimNetwork) {
  SimNetwork net(4, fast_net());
  Database db(DatabaseOptions{});
  db.load(1, 100);
  db.load(2, 100);
  AtpServer srv(db, std::make_unique<SimTransport>(net, kServerSite), {});
  ASSERT_TRUE(srv.ok());

  Client c = sim_client(net, 1);
  ASSERT_TRUE(c.hello("gold").ok());
  EXPECT_EQ(c.class_info().name, "gold");
  EXPECT_EQ(c.class_info().import_ceiling, 0);

  auto t = c.begin(TxnKind::Update);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(c.add(t.value(), 1, -30).ok());
  ASSERT_TRUE(c.add(t.value(), 2, +30).ok());
  auto z = c.commit(t.value());
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(z.value(), 0);  // gold is serializable: no fuzziness

  auto q = c.begin(TxnKind::Query);
  ASSERT_TRUE(q.ok());
  auto v = c.read(q.value(), 1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 70);
  ASSERT_TRUE(c.commit(q.value()).ok());
  EXPECT_TRUE(c.ping().ok());
  c.close();
  srv.stop();
}

TEST(Server, ClassesMapToDistinctEpsilonSpecs) {
  SimNetwork net(4, fast_net());
  Database db(DatabaseOptions{});
  db.load(1, 100);
  AtpServer srv(db, std::make_unique<SimTransport>(net, kServerSite), {});

  // Bronze may import hugely; asking 200 is within its ceiling.
  Client bronze = sim_client(net, 1);
  ASSERT_TRUE(bronze.hello("bronze").ok());
  auto q = bronze.begin(TxnKind::Query, /*import_limit=*/200);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(bronze.abort(q.value()).ok());

  // Gold's ceiling is 0: the same request is refused -- the class did not
  // buy that much inconsistency.
  Client gold = sim_client(net, 2);
  ASSERT_TRUE(gold.hello("gold").ok());
  auto over = gold.begin(TxnKind::Query, /*import_limit=*/50);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), ErrorCode::kEpsilonExceeded);
  // But the serializable default works.
  auto zero = gold.begin(TxnKind::Query);
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(gold.abort(zero.value()).ok());

  // Silver's query grant is metered against the class's concurrent budget;
  // an update has no eps budget and costs the class nothing.
  Client silver = sim_client(net, 3);
  ASSERT_TRUE(silver.hello("silver").ok());
  auto sq = silver.begin(TxnKind::Query, /*import_limit=*/100);
  ASSERT_TRUE(sq.ok());
  EXPECT_EQ(srv.admission().outstanding("silver"), 100);
  auto u = silver.begin(TxnKind::Update);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(srv.admission().outstanding("silver"), 100);
  ASSERT_TRUE(silver.commit(u.value()).ok());
  ASSERT_TRUE(silver.commit(sq.value()).ok());
  EXPECT_EQ(srv.admission().outstanding("silver"), 0);

  // Unknown classes are turned away at the handshake.
  Client nobody = sim_client(net, 1);
  EXPECT_EQ(nobody.hello("platinum").code(), ErrorCode::kNotFound);
  srv.stop();
}

TEST(Server, MidTransactionDisconnectAbortsAndReleasesEverything) {
  SimNetwork net(4, fast_net());
  Database db(DatabaseOptions{});
  db.load(7, 100);
  AtpServer srv(db, std::make_unique<SimTransport>(net, kServerSite), {});

  {
    Client doomed = sim_client(net, 1);
    ASSERT_TRUE(doomed.hello("silver").ok());
    auto q = doomed.begin(TxnKind::Query, /*import_limit=*/250);
    ASSERT_TRUE(q.ok());
    auto t = doomed.begin(TxnKind::Update);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(doomed.add(t.value(), 7, -10).ok());  // holds an X lock
    EXPECT_EQ(srv.admission().outstanding("silver"), 250);
    doomed.close();  // vanish mid-transaction
  }

  // Teardown must abort the transaction: eps budget back, lock released.
  EXPECT_TRUE(eventually(
      [&] { return srv.admission().outstanding("silver") == 0; }));
  EXPECT_TRUE(eventually([&] { return srv.active_sessions() == 0; }));

  Client next = sim_client(net, 2);
  ASSERT_TRUE(next.hello("gold").ok());
  auto t = next.begin(TxnKind::Update);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(next.add(t.value(), 7, -5).ok());  // same key: lock is free
  ASSERT_TRUE(next.commit(t.value()).ok());
  auto q = next.begin(TxnKind::Query);
  ASSERT_TRUE(q.ok());
  auto v = next.read(q.value(), 7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 95);  // the disconnected -10 never committed
  ASSERT_TRUE(next.commit(q.value()).ok());
  srv.stop();
}

TEST(Server, LowBudgetClassRejectedWhileHighBudgetProceeds) {
  SimNetwork net(5, fast_net());
  Database db(DatabaseOptions{});
  ServerOptions so;
  so.classes = {
      {"tight", 100, /*concurrent_budget=*/100, 8},
      {"rich", 100, kInfiniteLimit, 8},
  };
  AtpServer srv(db, std::make_unique<SimTransport>(net, kServerSite),
                std::move(so));

  Client a = sim_client(net, 1);
  ASSERT_TRUE(a.hello("tight").ok());
  auto first = a.begin(TxnKind::Query, 100);  // consumes the budget
  ASSERT_TRUE(first.ok());

  Client b = sim_client(net, 2);
  ASSERT_TRUE(b.hello("tight").ok());
  auto second = b.begin(TxnKind::Query, 100);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kUnavailable);

  Client c = sim_client(net, 3);
  ASSERT_TRUE(c.hello("rich").ok());
  auto rich = c.begin(TxnKind::Query, 100);  // unmetered class
  ASSERT_TRUE(rich.ok());
  ASSERT_TRUE(c.abort(rich.value()).ok());

  ASSERT_TRUE(a.abort(first.value()).ok());  // budget returns
  auto retry = b.begin(TxnKind::Query, 100);
  ASSERT_TRUE(retry.ok());
  ASSERT_TRUE(b.abort(retry.value()).ok());
  srv.stop();
}

TEST(ClassSpec, EachFieldLandsInItsMember) {
  // name:limit[:budget[:window]] -- the limit is the query import ceiling.
  ClassPolicy p;
  ASSERT_TRUE(parse_class_policy("vip:50:200:64", &p));
  EXPECT_EQ(p.name, "vip");
  EXPECT_EQ(p.import_ceiling, 50);
  EXPECT_EQ(p.concurrent_budget, 200);
  EXPECT_EQ(p.window, 64u);
  ClassPolicy open;  // omitted fields keep their defaults
  ASSERT_TRUE(parse_class_policy("open:inf", &open));
  EXPECT_EQ(open.import_ceiling, kInfiniteLimit);
  EXPECT_EQ(open.concurrent_budget, ClassPolicy{}.concurrent_budget);
  EXPECT_EQ(open.window, ClassPolicy{}.window);
  // The retired name:import:export:budget:window form is refused.
  EXPECT_FALSE(parse_class_policy("reporting:2000:2000:16000:8", &p));
  EXPECT_FALSE(parse_class_policy("reporting", &p));
}

TEST(Server, SessionWindowBackpressureAnswersImmediately) {
  // Unit-level: drive a Session directly so the window arithmetic is
  // deterministic (no worker racing the feed).
  Database db(DatabaseOptions{});
  AdmissionController ac({{"w", 100, kInfiniteLimit, /*window=*/2}});
  obs::MetricsRegistry reg;
  ServerCounters counters;
  counters.window_rejects = &reg.counter("srv.window_rejects");
  Session s(1, db, ac, counters);

  WireMessage hello;
  hello.kind = MsgKind::kHello;
  hello.text = "w";
  auto fed = s.feed(encode_frame(hello));
  EXPECT_FALSE(fed.fatal);
  auto req = s.take_next();
  ASSERT_TRUE(req.has_value());
  (void)s.execute(req->msg);
  EXPECT_FALSE(s.finish_one());

  // Five pipelined pings against a window of 2: three immediate rejections.
  std::string burst;
  for (int i = 0; i < 5; ++i) {
    WireMessage ping;
    ping.kind = MsgKind::kPing;
    ping.seq = std::uint64_t(100 + i);
    encode_frame(ping, &burst);
  }
  fed = s.feed(burst);
  EXPECT_FALSE(fed.fatal);
  EXPECT_EQ(reg.counter("srv.window_rejects").value(), 3u);
  FrameReader replies;
  replies.feed(fed.immediate_replies);
  std::size_t rejected = 0;
  while (auto r = replies.next()) {
    EXPECT_EQ(r->kind, MsgKind::kError);
    EXPECT_EQ(ErrorCode(r->op), ErrorCode::kUnavailable);
    ++rejected;
  }
  EXPECT_EQ(rejected, 3u);
  // The two queued requests still execute in order.
  for (int i = 0; i < 2; ++i) {
    auto next = s.take_next();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->msg.seq, std::uint64_t(100 + i));
    (void)s.execute(next->msg);
    (void)s.finish_one();
  }
  EXPECT_FALSE(s.take_next().has_value());
  s.close();
}

TEST(Server, ProtocolErrorDropsConnection) {
  SimNetwork net(3, fast_net());
  Database db(DatabaseOptions{});
  obs::MetricsRegistry reg;
  ServerOptions so;
  so.metrics = &reg;
  AtpServer srv(db, std::make_unique<SimTransport>(net, kServerSite),
                std::move(so));

  SimClientChannel ch(net, 1, kServerSite);
  ch.connect();
  ASSERT_TRUE(ch.send_bytes("this is not a frame at all, not even close"));
  // The server must close us; recv drains until the close notification.
  EXPECT_TRUE(eventually([&] {
    (void)ch.recv(10ms);
    return ch.closed_by_server();
  }));
  EXPECT_TRUE(eventually([&] { return srv.active_sessions() == 0; }));
  const auto snap = reg.snapshot();
  const obs::Sample* errs = snap.find("srv.protocol_errors");
  ASSERT_NE(errs, nullptr);
  EXPECT_GE(errs->value, 1);
  srv.stop();
}

TEST(Server, TcpConcurrentClientsAndCounters) {
  Database db(DatabaseOptions{});
  for (Key k = 0; k < 16; ++k) db.load(k, 1000);
  obs::MetricsRegistry reg;
  ServerOptions so;
  so.metrics = &reg;
  so.workers = 4;
  AtpServer srv(db, std::make_unique<TcpTransport>(0), std::move(so));
  ASSERT_TRUE(srv.ok());
  ASSERT_NE(srv.port(), 0);

  constexpr std::size_t kClients = 4, kTxns = 25;
  std::vector<std::size_t> committed(kClients, 0);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        Client c(std::make_unique<TcpByteChannel>("127.0.0.1", srv.port()));
        ASSERT_TRUE(c.hello("bronze").ok());
        for (std::size_t n = 0; n < kTxns; ++n) {
          auto t = c.begin(TxnKind::Update);
          if (!t.ok()) continue;
          const Key a = Key((i * 7 + n) % 16);
          const Key b = Key((a + 1) % 16);
          if (c.add(t.value(), a, -1).ok() && c.add(t.value(), b, +1).ok() &&
              c.commit(t.value()).ok()) {
            ++committed[i];
          }
        }
        c.close();
      });
    }
    for (auto& t : threads) t.join();
  }
  std::size_t total = 0;
  for (const std::size_t n : committed) total += n;
  EXPECT_GT(total, 0u);
  EXPECT_TRUE(eventually([&] { return srv.active_sessions() == 0; }));

  const auto snap = reg.snapshot();
  const obs::Sample* accepted = snap.find("srv.sessions.accepted");
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->value, double(kClients));
  const obs::Sample* commits = snap.find("srv.txn.committed");
  ASSERT_NE(commits, nullptr);
  EXPECT_EQ(commits->value, double(total));
  const obs::Sample* granted = snap.find("srv.admission.granted.bronze");
  ASSERT_NE(granted, nullptr);
  EXPECT_GE(granted->value, double(total));
  srv.stop();
}

TEST(Server, RepeatedStartStopNeverHangs) {
  // stop() must wake every worker parked on the ready queue.  Workers that
  // have checked their wait predicate but not yet blocked would miss a
  // notify issued without the queue mutex, and join() would hang; starting
  // and stopping over and over -- some cycles with a client mid-session --
  // hits that window.  A watchdog turns a hang into a test failure.
  constexpr int kCycles = 200;
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread watchdog([&done] {
    if (done.wait_for(60s) != std::future_status::ready) {
      std::fprintf(stderr, "AtpServer start/stop cycle hung\n");
      std::abort();
    }
  });

  Database db(DatabaseOptions{});
  db.load(1, 100);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ServerOptions so;
    so.workers = 4;
    so.poll_interval = 1ms;
    AtpServer srv(db, std::make_unique<TcpTransport>(0), std::move(so));
    ASSERT_TRUE(srv.ok());
    if (cycle % 10 == 0) {
      // A connected client with an open transaction when stop() runs.
      Client c(std::make_unique<TcpByteChannel>("127.0.0.1", srv.port()));
      ASSERT_TRUE(c.hello("bronze").ok());
      auto t = c.begin(TxnKind::Update);
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(c.add(t.value(), 1, 1).ok());
      srv.stop();
      c.close();
    } else {
      srv.stop();
    }
  }
  finished.set_value();
  watchdog.join();
  // Every cycle's open transaction was aborted at stop: nothing committed.
  EXPECT_EQ(db.store().read_committed(1).value(), 100);
}

TEST(Server, PerClassRequestLatencyHistogramsPopulate) {
  SimNetwork net(4, fast_net());
  Database db(DatabaseOptions{});
  db.load(1, 100);
  obs::MetricsRegistry reg;
  ServerOptions so;
  so.metrics = &reg;
  AtpServer srv(db, std::make_unique<SimTransport>(net, kServerSite),
                std::move(so));

  Client gold = sim_client(net, 1);
  ASSERT_TRUE(gold.hello("gold").ok());
  auto t = gold.begin(TxnKind::Update);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(gold.add(t.value(), 1, -1).ok());
  ASSERT_TRUE(gold.commit(t.value()).ok());
  Client bronze = sim_client(net, 2);
  ASSERT_TRUE(bronze.hello("bronze").ok());
  EXPECT_TRUE(bronze.ping().ok());

  const auto snap = reg.snapshot();
  const obs::Sample* g = snap.find("srv.request_latency.gold");
  ASSERT_NE(g, nullptr);
  // hello + begin + add + commit (hello resolves the class before the
  // worker records it, so it lands in the class's histogram too).
  EXPECT_EQ(g->summary.count, 4u);
  EXPECT_GE(g->summary.max, 0.0);
  const obs::Sample* b = snap.find("srv.request_latency.bronze");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->summary.count, 2u);  // hello + ping
  // A class nobody used exists but stays empty.
  const obs::Sample* s = snap.find("srv.request_latency.silver");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->summary.count, 0u);
  srv.stop();
}

TEST(Server, SlowRequestLogFiresAboveThreshold) {
  SimNetwork net(4, fast_net());
  Database db(DatabaseOptions{});
  db.load(1, 100);
  obs::MetricsRegistry reg;
  std::mutex slow_mu;
  std::vector<SlowRequest> slow;
  ServerOptions so;
  so.metrics = &reg;
  so.slow_request_threshold = std::chrono::microseconds(1);  // everything
  so.slow_log = [&](const SlowRequest& r) {
    std::lock_guard lock(slow_mu);
    slow.push_back(r);
  };
  AtpServer srv(db, std::make_unique<SimTransport>(net, kServerSite),
                std::move(so));

  Client c = sim_client(net, 1);
  ASSERT_TRUE(c.hello("gold").ok());
  auto t = c.begin(TxnKind::Update);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(c.add(t.value(), 1, -1).ok());
  ASSERT_TRUE(c.commit(t.value()).ok());

  {
    std::lock_guard lock(slow_mu);
    ASSERT_EQ(slow.size(), 4u);  // hello, begin, add, commit
    EXPECT_STREQ(slow[0].request, "hello");
    EXPECT_STREQ(slow[0].outcome, "hello-ok");
    EXPECT_EQ(slow[0].client_class, "gold");
    EXPECT_STREQ(slow[1].request, "begin");
    EXPECT_STREQ(slow[1].outcome, "ok");
    EXPECT_EQ(slow[1].error_code, 0u);
    EXPECT_GE(slow[1].queued_us + slow[1].exec_us, 1);
    EXPECT_STREQ(slow[3].request, "commit");
    EXPECT_EQ(slow[3].txn, t.value());
  }

  const auto snap = reg.snapshot();
  const obs::Sample* n = snap.find("srv.slow_requests");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->value, 4.0);
  srv.stop();
}

TEST(Server, SubThresholdRequestsAreNotLoggedSlow) {
  SimNetwork net(3, fast_net());
  Database db(DatabaseOptions{});
  std::atomic<int> fired{0};
  ServerOptions so;
  so.slow_request_threshold = std::chrono::seconds(10);
  so.slow_log = [&](const SlowRequest&) { ++fired; };
  AtpServer srv(db, std::make_unique<SimTransport>(net, kServerSite),
                std::move(so));
  Client c = sim_client(net, 1);
  ASSERT_TRUE(c.hello("gold").ok());
  EXPECT_TRUE(c.ping().ok());
  c.close();
  srv.stop();
  EXPECT_EQ(fired.load(), 0);
}

TEST(Server, SimNetworkPublishesTrafficMetrics) {
  obs::MetricsRegistry reg;  // must outlive the network (collector)
  SimNetwork net(3, fast_net());
  net.attach_metrics(&reg);
  Database db(DatabaseOptions{});
  AtpServer srv(db, std::make_unique<SimTransport>(net, kServerSite), {});
  Client c = sim_client(net, 1);
  ASSERT_TRUE(c.hello("gold").ok());
  EXPECT_TRUE(c.ping().ok());
  c.close();
  srv.stop();
  const auto snap = reg.snapshot();
  const obs::Sample* sent = snap.find("net.sim.sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_GT(sent->value, 0);
  const obs::Sample* delivered = snap.find("net.sim.delivered");
  ASSERT_NE(delivered, nullptr);
  EXPECT_GT(delivered->value, 0);
}

}  // namespace
}  // namespace atp::server
