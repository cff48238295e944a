#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "fault/fault.h"
#include "net/network.h"

namespace atp {
namespace {

using namespace std::chrono_literals;

NetworkOptions fast() {
  NetworkOptions o;
  o.one_way_latency = std::chrono::microseconds(200);
  return o;
}

TEST(SimNetwork, DeliversRequestToDestination) {
  SimNetwork net(2, fast());
  Message m;
  m.from = 0;
  m.to = 1;
  m.type = "ping";
  net.send(std::move(m));
  auto r = net.receive_request(1, 100ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, "ping");
  EXPECT_EQ(r->from, 0u);
}

TEST(SimNetwork, AssignsUniqueIds) {
  SimNetwork net(2, fast());
  Message a, b;
  a.from = b.from = 0;
  a.to = b.to = 1;
  const auto ia = net.send(std::move(a));
  const auto ib = net.send(std::move(b));
  EXPECT_NE(ia, ib);
}

TEST(SimNetwork, LatencyIsPaid) {
  NetworkOptions o;
  o.one_way_latency = std::chrono::microseconds(50000);  // 50 ms
  SimNetwork net(2, o);
  Message m;
  m.from = 0;
  m.to = 1;
  Stopwatch clock;
  net.send(std::move(m));
  auto r = net.receive_request(1, 500ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_GE(clock.elapsed_us(), 45000);
}

TEST(SimNetwork, ReceiveTimesOutOnSilence) {
  SimNetwork net(2, fast());
  Stopwatch clock;
  auto r = net.receive_request(1, 50ms);
  EXPECT_FALSE(r.has_value());
  EXPECT_GE(clock.elapsed_us(), 45000);
}

TEST(SimNetwork, RepliesAndRequestsAreSegregated) {
  SimNetwork net(2, fast());
  Message req;
  req.from = 0;
  req.to = 1;
  req.type = "req";
  const auto corr = net.send(std::move(req));
  Message reply;
  reply.from = 1;
  reply.to = 0;
  reply.type = "resp";
  reply.correlation = corr;
  net.send(std::move(reply));

  // receive_request at site 0 must NOT surface the reply.
  EXPECT_FALSE(net.receive_request(0, 30ms).has_value());
  auto r = net.receive_reply(
      0, 100ms, [corr](const Message& m) { return m.correlation == corr; });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, "resp");
}

TEST(SimNetwork, ReplyMatchingIsSelective) {
  SimNetwork net(2, fast());
  Message r1, r2;
  r1.from = r2.from = 1;
  r1.to = r2.to = 0;
  r1.correlation = 111;
  r1.type = "first";
  r2.correlation = 222;
  r2.type = "second";
  net.send(std::move(r1));
  net.send(std::move(r2));
  // Ask for the second correlation first; the other stays queued.
  auto b = net.receive_reply(
      0, 100ms, [](const Message& m) { return m.correlation == 222; });
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->type, "second");
  auto a = net.receive_reply(
      0, 100ms, [](const Message& m) { return m.correlation == 111; });
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->type, "first");
}

TEST(SimNetwork, DownSiteDropsInbound) {
  SimNetwork net(2, fast());
  net.set_site_up(1, false);
  Message m;
  m.from = 0;
  m.to = 1;
  net.send(std::move(m));
  EXPECT_EQ(net.stats().dropped, 1u);
  net.set_site_up(1, true);
  EXPECT_FALSE(net.receive_request(1, 30ms).has_value());
}

TEST(SimNetwork, CrashLosesInFlightInbox) {
  NetworkOptions o;
  o.one_way_latency = std::chrono::microseconds(50000);
  SimNetwork net(2, o);
  Message m;
  m.from = 0;
  m.to = 1;
  net.send(std::move(m));  // in flight for 50 ms
  net.set_site_up(1, false);  // crash before delivery
  net.set_site_up(1, true);
  EXPECT_FALSE(net.receive_request(1, 100ms).has_value());
}

TEST(SimNetwork, DownLinkDropsBothDirections) {
  SimNetwork net(3, fast());
  net.set_link_up(0, 1, false);
  Message m;
  m.from = 0;
  m.to = 1;
  net.send(std::move(m));
  EXPECT_FALSE(net.receive_request(1, 30ms).has_value());
  Message back;
  back.from = 1;
  back.to = 0;
  net.send(std::move(back));
  EXPECT_FALSE(net.receive_request(0, 30ms).has_value());
  // Unrelated link unaffected.
  Message ok;
  ok.from = 0;
  ok.to = 2;
  net.send(std::move(ok));
  EXPECT_TRUE(net.receive_request(2, 100ms).has_value());
}

TEST(SimNetwork, StatsCountSentDeliveredDropped) {
  SimNetwork net(2, fast());
  Message a;
  a.from = 0;
  a.to = 1;
  net.send(std::move(a));
  (void)net.receive_request(1, 100ms);
  net.set_site_up(1, false);
  Message b;
  b.from = 0;
  b.to = 1;
  net.send(std::move(b));
  const NetStats s = net.stats();
  EXPECT_EQ(s.sent, 2u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.dropped, 1u);
  net.reset_stats();
  EXPECT_EQ(net.stats().sent, 0u);
}

TEST(SimNetwork, DownSenderDropsOutbound) {
  // A crashed process cannot put messages on the wire: sends FROM a down
  // site are dropped (and accounted), not queued for later.
  SimNetwork net(2, fast());
  net.set_site_up(0, false);
  Message m;
  m.from = 0;
  m.to = 1;
  const auto id = net.send(std::move(m));
  EXPECT_GT(id, 0u);  // the id is still assigned
  const NetStats s = net.stats();
  EXPECT_EQ(s.sent, 1u);
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.delivered, 0u);
  // The drop is permanent: recovery does not resurrect the message.
  net.set_site_up(0, true);
  EXPECT_FALSE(net.receive_request(1, 30ms).has_value());
}

TEST(SimNetwork, CrashDiscardsOnlyTheCrashedInbox) {
  NetworkOptions o;
  o.one_way_latency = std::chrono::microseconds(30000);
  SimNetwork net(3, o);
  Message to1, to2;
  to1.from = 0;
  to1.to = 1;
  to2.from = 0;
  to2.to = 2;
  net.send(std::move(to1));
  net.send(std::move(to2));
  net.set_site_up(1, false);  // crash while both are in flight
  net.set_site_up(1, true);
  // Site 1's in-flight message died with it; site 2's is untouched.
  EXPECT_FALSE(net.receive_request(1, 60ms).has_value());
  EXPECT_TRUE(net.receive_request(2, 200ms).has_value());
  const NetStats s = net.stats();
  EXPECT_EQ(s.sent, 2u);
  EXPECT_EQ(s.dropped, 0u);    // both were deliverable at send time
  EXPECT_EQ(s.delivered, 1u);  // only site 2's arrived
}

TEST(SimNetwork, LinkStateIsSymmetricAndIndependentOfSites) {
  SimNetwork net(3, fast());
  // Down and up are symmetric no matter which endpoint order is used.
  net.set_link_up(0, 1, false);
  EXPECT_FALSE(net.link_up(0, 1));
  EXPECT_FALSE(net.link_up(1, 0));
  net.set_link_up(1, 0, true);
  EXPECT_TRUE(net.link_up(0, 1));
  EXPECT_TRUE(net.link_up(1, 0));
  // A down link leaves both sites up, and drops are accounted per send.
  net.set_link_up(0, 1, false);
  EXPECT_TRUE(net.site_up(0));
  EXPECT_TRUE(net.site_up(1));
  Message m;
  m.from = 1;
  m.to = 0;
  net.send(std::move(m));
  EXPECT_EQ(net.stats().dropped, 1u);
  // Restoring the link restores delivery (but not the dropped message).
  net.set_link_up(0, 1, true);
  EXPECT_FALSE(net.receive_request(0, 30ms).has_value());
  Message again;
  again.from = 1;
  again.to = 0;
  net.send(std::move(again));
  EXPECT_TRUE(net.receive_request(0, 100ms).has_value());
}

TEST(SimNetwork, CrashSendRaceNeverLeaksIntoClearedInbox) {
  // Regression: send() used to check the destination's liveness under the
  // state lock, drop it, and push into the inbox afterwards -- so a send
  // racing with a crash could publish into an inbox set_site_up(false) had
  // already cleared, and the "crashed" site would receive a message that
  // should have died with it.  The liveness check now happens under the
  // inbox lock; pre-fix this hammer loop leaks within a few hundred
  // iterations.
  NetworkOptions o;
  o.one_way_latency = std::chrono::microseconds(0);  // receivable on arrival
  SimNetwork net(2, o);
  for (int iter = 0; iter < 300; ++iter) {
    std::thread sender([&net] {
      for (int i = 0; i < 8; ++i) {
        Message m;
        m.from = 0;
        m.to = 1;
        m.type = "burst";
        net.send(std::move(m));
      }
    });
    net.set_site_up(1, false);  // races the burst
    sender.join();
    net.set_site_up(1, true);
    // Every burst message either observed the down site (dropped) or was
    // published before the crash (cleared); none may survive into the
    // post-crash inbox.
    EXPECT_FALSE(net.receive_request(1, 0ms).has_value()) << "iter " << iter;
  }
}

TEST(SimNetwork, InjectedDropIsCountedAndNeverDelivered) {
  SimNetwork net(2, fast());
  FaultSpec spec;
  spec.drop = 1.0;
  FaultInjector inj(7, spec);
  net.set_fault_injector(&inj);
  Message m;
  m.from = 0;
  m.to = 1;
  m.type = "doomed";
  net.send(std::move(m));
  EXPECT_FALSE(net.receive_request(1, 30ms).has_value());
  EXPECT_EQ(net.stats().dropped, 1u);
  ASSERT_EQ(inj.trace().size(), 1u);
  EXPECT_EQ(inj.trace()[0].kind, FaultKind::NetDrop);
}

TEST(SimNetwork, InjectedDuplicateTravelsUnderFreshId) {
  // Regression: reply correlation keys on the id of one specific
  // transmission, so a duplicated message must NOT reuse the original's id
  // -- the copy gets a fresh one from the same sequence.
  SimNetwork net(2, fast());
  FaultSpec spec;
  spec.duplicate = 1.0;
  FaultInjector inj(7, spec);
  net.set_fault_injector(&inj);
  Message m;
  m.from = 0;
  m.to = 1;
  m.type = "twin";
  m.gtid = 99;
  const auto id = net.send(std::move(m));
  auto a = net.receive_request(1, 100ms);
  auto b = net.receive_request(1, 100ms);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Same content, distinct ids, and exactly one travels under the id the
  // sender was told.
  EXPECT_EQ(a->type, "twin");
  EXPECT_EQ(b->type, "twin");
  EXPECT_EQ(a->gtid, 99u);
  EXPECT_EQ(b->gtid, 99u);
  EXPECT_NE(a->id, b->id);
  EXPECT_TRUE(a->id == id || b->id == id);
  // Both transmissions are accounted as sent.
  EXPECT_EQ(net.stats().sent, 2u);
  EXPECT_EQ(net.stats().delivered, 2u);
}

TEST(SimNetwork, JitterIsBoundedAndSeedDeterministic) {
  // Jitter draws come from a seeded, unbiased uniform over [0, jitter]:
  // two networks built with the same jitter_seed deliver an identical
  // burst in the identical (reordered) sequence.
  NetworkOptions o;
  o.one_way_latency = std::chrono::microseconds(0);
  o.jitter = std::chrono::microseconds(300000);  // big spread: reorders
  o.jitter_seed = 42;
  SimNetwork net_a(2, o), net_b(2, o);
  constexpr int kMsgs = 6;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    Message m;
    m.from = 0;
    m.to = 1;
    m.gtid = i;
    Message copy = m;
    net_a.send(std::move(m));
    net_b.send(std::move(copy));
  }
  std::vector<std::uint64_t> order_a, order_b;
  Stopwatch clock;
  for (int i = 0; i < kMsgs; ++i) {
    auto ra = net_a.receive_request(1, 1000ms);
    auto rb = net_b.receive_request(1, 1000ms);
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    order_a.push_back(ra->gtid);
    order_b.push_back(rb->gtid);
  }
  EXPECT_EQ(order_a, order_b);
  // And the jitter stayed within its bound (generous slack for slow CI).
  EXPECT_LE(clock.elapsed_us(), 900000);
}

TEST(SimNetwork, PayloadsTravelByAny) {
  SimNetwork net(2, fast());
  Message m;
  m.from = 0;
  m.to = 1;
  m.payload = std::make_pair(std::string("queue"), std::any(std::uint64_t{7}));
  net.send(std::move(m));
  auto r = net.receive_request(1, 100ms);
  ASSERT_TRUE(r.has_value());
  const auto* envelope =
      std::any_cast<std::pair<std::string, std::any>>(&r->payload);
  ASSERT_NE(envelope, nullptr);
  EXPECT_EQ(envelope->first, "queue");
  EXPECT_EQ(std::any_cast<std::uint64_t>(envelope->second), 7u);
}

}  // namespace
}  // namespace atp
