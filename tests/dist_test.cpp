// Distributed execution (Section 4): 2PC baseline vs chopped pieces over
// recoverable queues -- correctness, latency ordering, message counts, and
// failure behaviour (2PC blocks; chopped commits and completes later).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/site.h"
#include "wal/log.h"

namespace atp {
namespace {

using namespace std::chrono_literals;

constexpr Key kX = 1;  // account at site 0 (New York)
constexpr Key kY = 2;  // account at site 1 (Los Angeles)

class DistTest : public ::testing::Test {
 protected:
  void SetUp() override { start(std::chrono::microseconds(500)); }

  /// (Re)build the two-site rig.  `la_wal` gives LA a write-ahead log, so
  /// its commits wait for an fsync.
  void start(std::chrono::microseconds one_way, LogDevice* la_wal = nullptr) {
    // The old sites reference the old network: retire them first.
    TearDown();
    ny_.reset();
    la_.reset();
    NetworkOptions n;
    n.one_way_latency = one_way;
    net_ = std::make_unique<SimNetwork>(2, n);
    DatabaseOptions dbo;
    dbo.scheduler = SchedulerKind::DC;
    dbo.lock_timeout = std::chrono::milliseconds(1000);
    ny_ = std::make_unique<Site>(0, *net_, dbo);
    dbo.wal = la_wal;
    la_ = std::make_unique<Site>(1, *net_, dbo);
    ny_->db().load(kX, 1000);
    la_->db().load(kY, 1000);
    sites_ = {ny_.get(), la_.get()};
    Coordinator::install_chop_handler(sites_);
    ny_->start();
    la_->start();
  }

  void TearDown() override {
    if (ny_) ny_->stop();
    if (la_) la_->stop();
  }

  DistTxnSpec transfer_spec(Value amount, Value limit = 10000) {
    DistTxnSpec spec;
    spec.kind = TxnKind::Update;
    spec.limit = limit;
    spec.pieces = {
        DistPieceSpec{0, {Access::add(kX, -amount, amount)}},
        DistPieceSpec{1, {Access::add(kY, +amount, amount)}},
    };
    return spec;
  }

  /// The import limit the remote (LA) piece of a two-piece query chain runs
  /// with, at Limit_t = 100.  LA's 200 ms fsync keeps the piece's ET live in
  /// LA's registry while it commits; the limit is read off that entry (the
  /// handler begins it unlimited, then applies the shipped budget).
  Value remote_query_budget(bool dynamic) {
    la_wal_.set_fsync_latency(std::chrono::milliseconds(200));
    start(std::chrono::microseconds(500), &la_wal_);
    DistTxnSpec query;
    query.kind = TxnKind::Query;
    query.limit = 100;
    query.policy = dynamic ? DistPolicy::Dynamic : DistPolicy::Static;
    query.pieces = {DistPieceSpec{0, {Access::read(kX)}},
                    DistPieceSpec{1, {Access::read(kY)}}};
    auto out = Coordinator(*ny_, sites_).run_chopped(query, 1ms);
    Value budget = std::nan("");
    for (int i = 0; out.ok() && std::isnan(budget) && i < 5000; ++i) {
      for (const EtRegistry::Entry& e : la_->db().registry().snapshot_all()) {
        if (e.kind == TxnKind::Query && !std::isinf(e.spec.import_limit)) {
          budget = e.spec.import_limit;
        }
      }
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_TRUE(out.ok() && ny_->wait_done(out.value().gtid, 5000ms));
    return budget;
  }

  LogDevice la_wal_;  // declared first: outlives the sites that log to it
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<Site> ny_, la_;
  std::vector<Site*> sites_;
};

TEST_F(DistTest, TwoPhaseCommitTransfersMoney) {
  Coordinator coord(*ny_, sites_);
  auto out = coord.run_2pc(transfer_spec(100));
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out.value().completed);
  EXPECT_EQ(ny_->db().store().read_committed(kX).value(), 900);
  // Participant committed on the commit message.
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1100);
}

TEST_F(DistTest, ChoppedTransfersMoneyAsynchronously) {
  Coordinator coord(*ny_, sites_);
  auto out = coord.run_chopped(transfer_spec(100), 5000ms);
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out.value().completed);
  EXPECT_EQ(ny_->db().store().read_committed(kX).value(), 900);
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1100);
}

TEST_F(DistTest, ChoppedClientLatencyBeatsTwoPhaseCommit) {
  // With 5 ms one-way latency the protocol rounds dominate: 2PC pays >= 2
  // RTTs (prepare + validate) before the client sees commit; the chopped
  // path pays none.
  TearDown();
  start(std::chrono::microseconds(5000));
  Coordinator coord(*ny_, sites_);

  double tpc = 0, chop = 0;
  const int kRounds = 5;
  for (int i = 0; i < kRounds; ++i) {
    auto a = coord.run_2pc(transfer_spec(10));
    ASSERT_TRUE(a.ok());
    tpc += a.value().client_latency_us;
    auto b = coord.run_chopped(transfer_spec(10), 5000ms);
    ASSERT_TRUE(b.ok());
    chop += b.value().client_latency_us;
  }
  // 2PC client latency should exceed chopped by roughly 2 RTTs = 20 ms.
  EXPECT_GT(tpc / kRounds, chop / kRounds + 15000);
}

TEST_F(DistTest, ChoppedUsesFewerProtocolMessages) {
  Coordinator coord(*ny_, sites_);
  net_->reset_stats();
  ASSERT_TRUE(coord.run_2pc(transfer_spec(10)).ok());
  const auto tpc = net_->stats().sent;
  net_->reset_stats();
  ASSERT_TRUE(coord.run_chopped(transfer_spec(10), 5000ms).ok());
  const auto chop = net_->stats().sent;
  // 2PC: prepare+vote, validate+ack, commit+ack = 6.
  // Chopped: qdata+qack for the piece, qdata+qack for the done notice = 4
  // (retransmissions possible but rare here).
  EXPECT_GT(tpc, chop);
}

TEST_F(DistTest, ValidationRoundIsOptional) {
  Coordinator coord(*ny_, sites_);
  net_->reset_stats();
  ASSERT_TRUE(coord.run_2pc(transfer_spec(10), /*validation_round=*/true).ok());
  const auto with = net_->stats().sent;
  net_->reset_stats();
  ASSERT_TRUE(coord.run_2pc(transfer_spec(10), /*validation_round=*/false).ok());
  const auto without = net_->stats().sent;
  EXPECT_EQ(with, without + 2);  // one fewer round trip
}

TEST_F(DistTest, SinglePieceChoppedIsPurelyLocal) {
  Coordinator coord(*ny_, sites_);
  DistTxnSpec spec;
  spec.kind = TxnKind::Update;
  spec.limit = 0;
  spec.pieces = {DistPieceSpec{0, {Access::add(kX, -5, 5)}}};
  net_->reset_stats();
  auto out = coord.run_chopped(spec, 1000ms);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().completed);
  EXPECT_EQ(net_->stats().sent, 0u);
}

TEST_F(DistTest, ParticipantCrashBeforePrepareAbortsCleanly) {
  Coordinator coord(*ny_, sites_);
  la_->crash();
  auto out = coord.run_2pc(transfer_spec(50), true, 300ms);
  EXPECT_FALSE(out.ok());
  la_->recover();
  // Nothing moved.
  EXPECT_EQ(ny_->db().store().read_committed(kX).value(), 1000);
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1000);
}

TEST_F(DistTest, ChoppedSurvivesRemoteSiteFailure) {
  // The paper's availability claim: with the destination down, the first
  // piece still commits instantly; the second piece lands after recovery via
  // the durable queue.
  Coordinator coord(*ny_, sites_);
  la_->crash();
  auto out = coord.run_chopped(transfer_spec(100), 200ms);
  ASSERT_TRUE(out.ok());                    // client saw a commit
  EXPECT_FALSE(out.value().completed);      // but LA hasn't applied yet
  EXPECT_EQ(ny_->db().store().read_committed(kX).value(), 900);
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1000);

  la_->recover();
  // Retransmission + handler must finish the job.
  EXPECT_TRUE(ny_->wait_done(out.value().gtid, 5000ms));
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1100);
}

TEST_F(DistTest, TwoPhaseCommitBlocksAcrossParticipantCrash) {
  // Crash LA right after it votes: the coordinator's commit round must block
  // until recovery -- the blocking window the paper charges 2PC with.
  // Timeline with 20 ms one-way latency and no validation round:
  //   t=0    prepare sent          t=20ms  LA votes (now prepared)
  //   t=30ms LA crashes            t=40ms  vote arrives, commit round starts
  //   commit messages dropped until LA recovers at ~t=430ms.
  TearDown();
  start(std::chrono::microseconds(20000));
  Coordinator coord(*ny_, sites_);
  std::thread crasher([&] {
    std::this_thread::sleep_for(30ms);
    la_->crash();
    std::this_thread::sleep_for(400ms);
    la_->recover();
  });
  auto out = coord.run_2pc(transfer_spec(100), /*validation_round=*/false,
                           2000ms);
  crasher.join();
  ASSERT_TRUE(out.ok()) << out.status().to_string();
  EXPECT_TRUE(out.value().completed);
  // The prepared subtransaction survived the crash (force-logged vote) and
  // committed on the retransmitted decision.
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1100);
  // Completion blocked across the ~400 ms outage.
  EXPECT_GT(out.value().complete_latency_us, 300000);
}

TEST_F(DistTest, ChainAcrossThreeHops) {
  // Three-piece chain: NY -> LA -> NY (money round-trips with a fee).
  Coordinator coord(*ny_, sites_);
  DistTxnSpec spec;
  spec.kind = TxnKind::Update;
  spec.limit = 3000;
  spec.pieces = {
      DistPieceSpec{0, {Access::add(kX, -100, 100)}},
      DistPieceSpec{1, {Access::add(kY, +90, 90)}},
      DistPieceSpec{0, {Access::add(kX, +10, 10)}},
  };
  auto out = coord.run_chopped(spec, 5000ms);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().completed);
  EXPECT_EQ(ny_->db().store().read_committed(kX).value(), 910);
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1090);
}

TEST_F(DistTest, ConcurrentChoppedTransfersAllComplete) {
  Coordinator coord(*ny_, sites_);
  std::vector<std::uint64_t> gtids;
  for (int i = 0; i < 10; ++i) {
    auto out = coord.run_chopped(transfer_spec(10), 10ms);
    ASSERT_TRUE(out.ok());
    gtids.push_back(out.value().gtid);
  }
  for (auto g : gtids) EXPECT_TRUE(ny_->wait_done(g, 5000ms));
  EXPECT_EQ(ny_->db().store().read_committed(kX).value(), 900);
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1100);
}

TEST_F(DistTest, DynamicEpsilonFlowsLeftoverDownTheChain) {
  // Distributed dynamic distribution (Figure 2 over the wire): piece 1 runs
  // with the whole Limit_t of 100 and the continuation ships Z_1, from
  // which the remote hop's distributor derives the leftover 100 - Z_1.
  // Nothing moves at NY, so Z_1 = 0.
  EXPECT_EQ(remote_query_budget(/*dynamic=*/true), 100);
}

TEST_F(DistTest, StaticEpsilonGivesEachPieceItsShare) {
  // Static pre-division: the remote piece runs with its 100 / 2 share
  // whatever piece 1 left over.
  EXPECT_EQ(remote_query_budget(/*dynamic=*/false), 50);
}

TEST_F(DistTest, ChoppedSurvivesLinkFailure) {
  // A severed link (not a crashed site) also may not lose pieces: the
  // durable outbound set retransmits once connectivity returns.
  Coordinator coord(*ny_, sites_);
  ny_->queues().set_retry_interval(10ms);
  net_->set_link_up(0, 1, false);
  auto out = coord.run_chopped(transfer_spec(70), 100ms);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value().completed);  // piece stuck behind the dead link
  EXPECT_EQ(ny_->db().store().read_committed(kX).value(), 930);
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1000);

  net_->set_link_up(0, 1, true);
  EXPECT_TRUE(ny_->wait_done(out.value().gtid, 5000ms));
  EXPECT_EQ(la_->db().store().read_committed(kY).value(), 1070);
}

TEST_F(DistTest, WaitDoneTimesOutForUnknownGtid) {
  EXPECT_FALSE(ny_->wait_done(0xdeadbeef, 50ms));
}

TEST_F(DistTest, DistributedDivergenceControlBoundsRemoteQueries) {
  // The paper's NY/LA example: while a chopped transfer is in flight, a
  // chopped query sums both branches with a per-piece import budget.
  Coordinator coord(*ny_, sites_);
  ASSERT_TRUE(coord.run_chopped(transfer_spec(100), 5000ms).ok());

  DistTxnSpec query;
  query.kind = TxnKind::Query;
  query.limit = 10000;
  query.pieces = {
      DistPieceSpec{0, {Access::read(kX)}},
      DistPieceSpec{1, {Access::read(kY)}},
  };
  auto out = coord.run_chopped(query, 5000ms);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().completed);
}

}  // namespace
}  // namespace atp
