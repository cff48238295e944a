// Session + admission lifecycle tests for the server front-end.
//
// Most suites run over SimTransport/SimByteChannel -- the deterministic
// SimNetwork backend -- so session behaviour (handshake, admission grants,
// disconnect teardown, budget release) is tested without sockets; one suite
// drives the real TcpTransport end-to-end with concurrent clients.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/socket.h"
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

/// A loopback client socket with a small receive buffer, so that replies it
/// does not read back up into the server's write queue quickly.  Blocking
/// reads time out after 2s.
int connect_small_rcvbuf(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Read frames from `ch` into `out` until it holds `n` of them or 5s pass.
void await_frames(ByteChannel& ch, FrameReader& reader,
                  std::vector<WireMessage>& out, std::size_t n) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (out.size() < n && std::chrono::steady_clock::now() < deadline) {
    while (auto r = reader.next()) out.push_back(std::move(*r));
    if (out.size() >= n) break;
    if (auto bytes = ch.recv(100ms)) reader.feed(*bytes);
  }
}

/// Poll until a non-empty batch arrives or `limit` passes.
std::vector<TransportEvent> poll_some(Transport& t,
                                      std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  for (;;) {
    std::vector<TransportEvent> evs = t.poll(20ms);
    if (!evs.empty() || std::chrono::steady_clock::now() >= deadline) {
      return evs;
    }
  }
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

TEST(Server, LockHolderDisconnectUnblocksWaiterWithOneWorker) {
  // One executor slot, and B's add takes it while it waits on A's X lock.
  // Only the thread kept back for polling can see A disconnect, and A's
  // teardown is what releases the lock.  Without that thread B waits out
  // the full 2s lock timeout and fails.
  Database db(DatabaseOptions{});
  db.load(5, 100);
  ServerOptions so;
  so.workers = 1;
  AtpServer srv(db, std::make_unique<TcpTransport>(0), std::move(so));
  ASSERT_TRUE(srv.ok());

  Client a(std::make_unique<TcpByteChannel>("127.0.0.1", srv.port()));
  ASSERT_TRUE(a.hello("bronze").ok());
  auto ta = a.begin(TxnKind::Update);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(a.add(ta.value(), 5, -10).ok());  // A holds X on key 5

  Client b(std::make_unique<TcpByteChannel>("127.0.0.1", srv.port()));
  ASSERT_TRUE(b.hello("bronze").ok());
  auto tb = b.begin(TxnKind::Update);
  ASSERT_TRUE(tb.ok());
  std::future<Status> blocked = std::async(
      std::launch::async, [&] { return b.add(tb.value(), 5, +1); });
  ASSERT_EQ(blocked.wait_for(200ms), std::future_status::timeout)
      << "B's add must wait on A's lock";

  const auto t0 = std::chrono::steady_clock::now();
  a.close();
  const Status added = blocked.get();
  ASSERT_TRUE(added.ok()) << added.to_string();
  ASSERT_TRUE(b.commit(tb.value()).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);
  EXPECT_EQ(db.store().read_committed(5).value(), 101);  // A's -10 aborted
  b.close();
  srv.stop();
}

TEST(Server, PipelinedRequestsKeepOrderAcrossWorkers) {
  // Many threads may execute a session's requests one after another; the
  // replies and the effects must still follow the order on the wire.
  Database db(DatabaseOptions{});
  db.load(3, 0);
  ServerOptions so;
  so.workers = 4;
  AtpServer srv(db, std::make_unique<TcpTransport>(0), std::move(so));
  ASSERT_TRUE(srv.ok());

  TcpByteChannel ch("127.0.0.1", srv.port());
  ASSERT_TRUE(ch.ok());
  FrameReader reader;
  std::vector<WireMessage> replies;

  // Hello first: before it executes the session has the pre-hello window.
  WireMessage hello;
  hello.kind = MsgKind::kHello;
  hello.seq = 1;
  hello.text = "gold";
  ASSERT_TRUE(ch.send_bytes(encode_frame(hello)));
  await_frames(ch, reader, replies, 1);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].kind, MsgKind::kHelloOk);

  // One send: begin, then eight write/read pairs on one key, then commit.
  constexpr int kPairs = 8;
  std::string burst;
  std::uint64_t seq = 1;
  WireMessage begin;
  begin.kind = MsgKind::kBegin;
  begin.seq = ++seq;
  begin.txn = 1;
  begin.op = std::uint8_t(TxnKind::Update);
  begin.value = -1;
  encode_frame(begin, &burst);
  for (int i = 1; i <= kPairs; ++i) {
    WireMessage w;
    w.kind = MsgKind::kOp;
    w.seq = ++seq;
    w.txn = 1;
    w.op = std::uint8_t(OpCode::kWrite);
    w.key = 3;
    w.value = double(10 * i);
    encode_frame(w, &burst);
    WireMessage r = w;
    r.seq = ++seq;
    r.op = std::uint8_t(OpCode::kRead);
    r.value = 0;
    encode_frame(r, &burst);
  }
  WireMessage commit;
  commit.kind = MsgKind::kCommit;
  commit.seq = ++seq;
  commit.txn = 1;
  encode_frame(commit, &burst);
  ASSERT_TRUE(ch.send_bytes(burst));

  await_frames(ch, reader, replies, std::size_t(seq));
  ASSERT_EQ(replies.size(), std::size_t(seq));
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].seq, std::uint64_t(i + 1)) << "reply " << i;
  }
  EXPECT_EQ(replies[1].kind, MsgKind::kOk);  // begin
  for (int i = 1; i <= kPairs; ++i) {
    const WireMessage& wrote = replies[std::size_t(2 * i)];
    const WireMessage& read = replies[std::size_t(2 * i + 1)];
    EXPECT_EQ(wrote.kind, MsgKind::kOk) << "write " << i;
    ASSERT_EQ(read.kind, MsgKind::kValue) << "read " << i;
    EXPECT_EQ(read.value, double(10 * i)) << "read " << i;
  }
  EXPECT_EQ(replies.back().kind, MsgKind::kOk);  // commit
  EXPECT_EQ(db.store().read_committed(3).value(), 10 * kPairs);
  ch.close();
  srv.stop();
}

TEST(Transport, TcpDataThenFinYieldsDataThenClosed) {
  // A read stops after a short recv, so the EOF right behind the data is
  // left for a later poll; it must still arrive, and after the data.
  TcpTransport t(0);
  ASSERT_TRUE(t.ok());
  const int fd = connect_tcp("127.0.0.1", t.port());
  ASSERT_GE(fd, 0);
  const std::string payload = "request bytes then FIN";
  ASSERT_TRUE(send_all(fd, payload));
  ::close(fd);

  std::vector<TransportEvent> seen;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (std::chrono::steady_clock::now() < deadline &&
         (seen.empty() ||
          seen.back().kind != TransportEvent::Kind::kClosed)) {
    for (TransportEvent& ev : t.poll(20ms)) {
      // Done with this delivery: let the connection's next activity in.
      if (ev.kind != TransportEvent::Kind::kClosed) t.rearm(ev.conn);
      seen.push_back(std::move(ev));
    }
  }
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front().kind, TransportEvent::Kind::kAccept);
  EXPECT_EQ(seen.back().kind, TransportEvent::Kind::kClosed);
  std::string data;
  for (std::size_t i = 1; i + 1 < seen.size(); ++i) {
    EXPECT_EQ(seen[i].kind, TransportEvent::Kind::kData) << "event " << i;
    data += seen[i].data;
  }
  EXPECT_EQ(data, payload);
}

TEST(Server, PipeliningTcpClientsAreFedByOneThreadAtATime) {
  // Several clients pipeline bursts whose frames are cut into small pieces
  // and written one piece per send, so a burst reaches the server as many
  // deliveries.  Were a connection's bytes ever fed by two threads at once
  // the frame decoder would tear (a protocol error) or replies would leave
  // out of order; neither may happen.
  Database db(DatabaseOptions{});
  obs::MetricsRegistry reg;
  ServerOptions so;
  so.workers = 4;
  so.metrics = &reg;
  AtpServer srv(db, std::make_unique<TcpTransport>(0), std::move(so));
  ASSERT_TRUE(srv.ok());

  constexpr std::size_t kClients = 4, kRounds = 10, kBurst = 32, kPiece = 13;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      TcpByteChannel ch("127.0.0.1", srv.port());
      ASSERT_TRUE(ch.ok());
      FrameReader reader;
      std::vector<WireMessage> replies;
      WireMessage hello;
      hello.kind = MsgKind::kHello;
      hello.seq = 1;
      hello.text = "gold";
      ASSERT_TRUE(ch.send_bytes(encode_frame(hello)));
      await_frames(ch, reader, replies, 1);
      ASSERT_EQ(replies.size(), 1u);
      ASSERT_EQ(replies[0].kind, MsgKind::kHelloOk);
      std::uint64_t seq = 1;
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::string burst;
        for (std::size_t k = 0; k < kBurst; ++k) {
          WireMessage ping;
          ping.kind = MsgKind::kPing;
          ping.seq = ++seq;
          encode_frame(ping, &burst);
        }
        for (std::size_t off = 0; off < burst.size(); off += kPiece) {
          ASSERT_TRUE(ch.send_bytes(std::string_view(burst).substr(off, kPiece)));
        }
        await_frames(ch, reader, replies, std::size_t(seq));
        ASSERT_EQ(replies.size(), std::size_t(seq)) << "round " << round;
      }
      for (std::size_t k = 0; k < replies.size(); ++k) {
        EXPECT_EQ(replies[k].seq, std::uint64_t(k + 1)) << "reply " << k;
        if (k > 0) {
          EXPECT_EQ(replies[k].kind, MsgKind::kOk) << "reply " << k;
        }
      }
      ch.close();
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("srv.protocol_errors")->value, 0.0);
  EXPECT_EQ(snap.find("srv.window_rejects")->value, 0.0);
  EXPECT_EQ(snap.find("srv.requests")->value,
            double(kClients * (1 + kRounds * kBurst)));
  srv.stop();
}

TEST(Server, HelloRightAfterConnectIsNeverLost) {
  // A new connection enters epoll only once its session exists, so bytes
  // sent the moment connect() returns wait in the socket for it; none may
  // be dropped or reach a connection the server does not know yet.
  Database db(DatabaseOptions{});
  obs::MetricsRegistry reg;
  ServerOptions so;
  so.workers = 2;
  so.metrics = &reg;
  AtpServer srv(db, std::make_unique<TcpTransport>(0), std::move(so));
  ASSERT_TRUE(srv.ok());
  constexpr int kCycles = 200;
  WireMessage hello;
  hello.kind = MsgKind::kHello;
  hello.seq = 1;
  hello.text = "silver";
  const std::string frame = encode_frame(hello);
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    TcpByteChannel ch("127.0.0.1", srv.port());
    ASSERT_TRUE(ch.ok());
    ASSERT_TRUE(ch.send_bytes(frame));
    FrameReader reader;
    std::vector<WireMessage> replies;
    await_frames(ch, reader, replies, 1);
    ASSERT_EQ(replies.size(), 1u) << "cycle " << cycle;
    ASSERT_EQ(replies[0].kind, MsgKind::kHelloOk) << "cycle " << cycle;
    ch.close();
  }
  EXPECT_TRUE(eventually([&] { return srv.active_sessions() == 0; }));
  EXPECT_EQ(reg.snapshot().find("srv.sessions.accepted")->value,
            double(kCycles));
  srv.stop();
}

TEST(Server, QueuedSessionOverflowingItsSocketIsEvictedOnce) {
  // P pipelines requests whose replies are ~60 KB each and never reads
  // them.  They queue behind B, which holds the only executor slot waiting
  // on H's lock, so when H leaves they run on a thread that does not own
  // P's connection.  The replies overflow P's socket and then the server's
  // write queue: P must be evicted once, and everyone else keeps working.
  Database db(DatabaseOptions{});
  db.load(5, 100);
  obs::MetricsRegistry reg;
  ServerOptions so;
  so.workers = 1;
  so.metrics = &reg;
  so.classes = {{"bronze", 100000, kInfiniteLimit, 16},
                {"wide", 0, kInfiniteLimit, 256}};
  AtpServer srv(db, std::make_unique<TcpTransport>(0), std::move(so));
  ASSERT_TRUE(srv.ok());

  const int p = connect_small_rcvbuf(srv.port());
  ASSERT_GE(p, 0);
  {
    WireMessage hello;
    hello.kind = MsgKind::kHello;
    hello.seq = 1;
    hello.text = "wide";
    ASSERT_TRUE(send_all(p, encode_frame(hello)));
    FrameReader reader;
    std::optional<WireMessage> ok;
    char buf[512];
    while (!ok.has_value()) {
      const ssize_t n = ::recv(p, buf, sizeof buf, 0);
      ASSERT_GT(n, 0);
      reader.feed(std::string_view(buf, std::size_t(n)));
      ok = reader.next();
    }
    ASSERT_EQ(ok->kind, MsgKind::kHelloOk);
  }

  Client h(std::make_unique<TcpByteChannel>("127.0.0.1", srv.port()));
  ASSERT_TRUE(h.hello("bronze").ok());
  auto th = h.begin(TxnKind::Update);
  ASSERT_TRUE(th.ok());
  ASSERT_TRUE(h.add(th.value(), 5, -10).ok());
  Client b(std::make_unique<TcpByteChannel>("127.0.0.1", srv.port()));
  ASSERT_TRUE(b.hello("bronze").ok());
  auto tb = b.begin(TxnKind::Update);
  ASSERT_TRUE(tb.ok());
  std::future<Status> blocked = std::async(
      std::launch::async, [&] { return b.add(tb.value(), 5, +1); });
  ASSERT_EQ(blocked.wait_for(200ms), std::future_status::timeout);

  // An unknown class name is echoed in the error reply: a big request
  // makes a big reply.
  constexpr std::size_t kRequests = 200;
  WireMessage big;
  big.kind = MsgKind::kHello;
  big.text = std::string(60000, 'x');
  std::string burst;
  for (std::size_t i = 0; i < kRequests; ++i) {
    big.seq = 2 + i;
    encode_frame(big, &burst);
  }
  ASSERT_TRUE(send_all(p, burst));
  std::this_thread::sleep_for(100ms);  // let the server read it all

  h.close();
  const Status added = blocked.get();
  ASSERT_TRUE(added.ok()) << added.to_string();
  ASSERT_TRUE(b.commit(tb.value()).ok());
  EXPECT_EQ(db.store().read_committed(5).value(), 101);

  // P's replies run until its write queue passes kMaxWriteBuffer; then the
  // connection is shut down and its session dropped.
  EXPECT_TRUE(eventually(
      [&] {
        return reg.snapshot().find("srv.sessions.closed")->value >= 2.0;
      },
      5000ms));
  EXPECT_EQ(srv.active_sessions(), 1u);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("srv.sessions.accepted")->value, 3.0);
  EXPECT_EQ(snap.find("srv.sessions.closed")->value, 2.0);  // H and P
  EXPECT_EQ(snap.find("srv.protocol_errors")->value, 0.0);
  const double executed =
      double(snap.find("srv.request_latency.wide")->summary.count);
  EXPECT_GT(executed * double(big.text.size()),
            double(TcpTransport::kMaxWriteBuffer));
  // P sees the connection end after at most what the kernel held for it.
  std::size_t received = 0;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(p, buf, sizeof buf, 0);
    if (n <= 0) break;
    received += std::size_t(n);
  }
  EXPECT_LT(received, kRequests * big.text.size());
  ::close(p);

  EXPECT_TRUE(b.ping().ok());  // the server is still serving
  b.close();
  srv.stop();
}

TEST(Transport, TcpHoldsAConnectionsBytesUntilRearm) {
  // One-shot delivery: the thread that took a connection's bytes is its
  // only reader until it re-arms it, however much more arrives meanwhile.
  TcpTransport t(0);
  ASSERT_TRUE(t.ok());
  const int fd = connect_tcp("127.0.0.1", t.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "a1"));  // before the server has re-armed it
  std::vector<TransportEvent> evs = poll_some(t, 2s);
  ASSERT_EQ(evs.size(), 1u);
  ASSERT_EQ(evs[0].kind, TransportEvent::Kind::kAccept);
  const ConnId conn = evs[0].conn;
  EXPECT_TRUE(t.poll(30ms).empty());  // not in epoll until the first rearm
  t.rearm(conn);
  evs = poll_some(t, 2s);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, TransportEvent::Kind::kData);
  EXPECT_EQ(evs[0].data, "a1");

  ASSERT_TRUE(send_all(fd, "a2"));
  EXPECT_TRUE(t.poll(30ms).empty());
  // The owner may still reply; that does not let the bytes in either.
  EXPECT_TRUE(t.send(conn, "reply"));
  EXPECT_TRUE(t.poll(30ms).empty());
  t.rearm(conn);
  evs = poll_some(t, 2s);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, TransportEvent::Kind::kData);
  EXPECT_EQ(evs[0].data, "a2");
  ::close(fd);
}

TEST(Transport, TcpEvictionIsDeliveredOnceAsClosed) {
  // Replies to an armed connection (no owner: its session is queued) that
  // its peer never reads: once the write queue passes kMaxWriteBuffer the
  // connection is evicted, and exactly one of two concurrent pollers
  // receives exactly one kClosed for it.
  TcpTransport t(0);
  ASSERT_TRUE(t.ok());
  const int fd = connect_small_rcvbuf(t.port());
  ASSERT_GE(fd, 0);
  std::vector<TransportEvent> first = poll_some(t, 2s);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].kind, TransportEvent::Kind::kAccept);
  const ConnId conn = first[0].conn;
  t.rearm(conn);

  std::atomic<bool> done{false};
  std::mutex seen_mu;
  std::vector<TransportEvent> seen;
  std::vector<std::thread> pollers;
  for (int i = 0; i < 2; ++i) {
    pollers.emplace_back([&] {
      while (!done.load()) {
        for (TransportEvent& ev : t.poll(10ms)) {
          if (ev.kind != TransportEvent::Kind::kClosed) t.rearm(ev.conn);
          std::lock_guard lock(seen_mu);
          seen.push_back(std::move(ev));
        }
      }
    });
  }
  const std::string chunk(64 * 1024, 'r');
  std::size_t accepted = 0;
  while (t.send(conn, chunk)) accepted += chunk.size();
  EXPECT_GE(accepted, TcpTransport::kMaxWriteBuffer - chunk.size());
  EXPECT_FALSE(t.send(conn, "late"));
  EXPECT_TRUE(eventually([&] {
    std::lock_guard lock(seen_mu);
    return !seen.empty();
  }));
  std::this_thread::sleep_for(100ms);  // room for a second delivery
  done = true;
  for (auto& th : pollers) th.join();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].kind, TransportEvent::Kind::kClosed);
  EXPECT_EQ(seen[0].conn, conn);
  ::close(fd);
}

TEST(Transport, SimHoldsAConnectionsMessagesUntilRearm) {
  SimNetwork net(3, fast_net());
  SimTransport t(net, kServerSite);
  SimClientChannel a(net, 1, kServerSite);
  SimClientChannel b(net, 2, kServerSite);
  using Kind = TransportEvent::Kind;

  a.connect();
  ASSERT_TRUE(a.send_bytes("a1"));
  std::vector<TransportEvent> evs = poll_some(t, 1s);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, Kind::kAccept);
  EXPECT_EQ(evs[0].conn, 1u);
  // a is owned: its data waits, while another connection gets through.
  EXPECT_TRUE(t.poll(30ms).empty());
  b.connect();
  evs = poll_some(t, 1s);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, Kind::kAccept);
  EXPECT_EQ(evs[0].conn, 2u);

  t.rearm(1);
  evs = poll_some(t, 1s);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, Kind::kData);
  EXPECT_EQ(evs[0].data, "a1");

  ASSERT_TRUE(a.send_bytes("a2"));
  a.close();
  EXPECT_TRUE(t.poll(30ms).empty());
  // A poller already blocked wakes as soon as the owner re-arms.
  const auto t0 = std::chrono::steady_clock::now();
  std::future<std::vector<TransportEvent>> waiting =
      std::async(std::launch::async, [&] { return t.poll(5s); });
  std::this_thread::sleep_for(20ms);
  t.rearm(1);
  evs = waiting.get();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, Kind::kData);
  EXPECT_EQ(evs[0].data, "a2");
  // The close stays behind the data.
  EXPECT_TRUE(t.poll(30ms).empty());
  t.rearm(1);
  evs = poll_some(t, 1s);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, Kind::kClosed);
  EXPECT_EQ(evs[0].conn, 1u);
}

TEST(Server, RepeatedStartStopNeverHangs) {
  // stop() must bring back every server thread, whether it is blocked in
  // poll or executing.  Starting and stopping over and over -- some cycles
  // with a client mid-session -- hits the windows where a thread has
  // checked the stop flag but not yet blocked.  A watchdog turns a hang
  // into a test failure.
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
