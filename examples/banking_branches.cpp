// The paper's Section 4 scenario, end to end: a New-York/Los-Angeles bank
// moves money between branches while a distributed query sums both.
//
// Two sites run real service threads over a simulated WAN (10 ms one way).
// The same transfer executes twice:
//   * traditionally -- subtransactions + two-phase commit + a global
//     validation round;
//   * the paper's way -- chopped at the branch boundary, piece 1 commits
//     locally and hands piece 2 to Los Angeles through a recoverable queue;
// then Los Angeles crashes mid-stream and the run shows why the paper calls
// the chopped scheme "asynchronous": clients never notice.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "dist/coordinator.h"
#include "dist/site.h"

using namespace atp;
using namespace std::chrono_literals;

namespace {

constexpr Key kNyAccount = 100;
constexpr Key kLaAccount = 200;

DistTxnSpec transfer(Value amount) {
  DistTxnSpec spec;
  spec.kind = TxnKind::Update;
  // The paper splits the $10,000 Limit_t evenly across the pieces.  Update
  // pieces are never charged here (divergence control is import-only), so
  // only a query chain spends its share.
  spec.piece_epsilon = 5000;
  spec.pieces = {DistPieceSpec{0, {Access::add(kNyAccount, -amount, amount)}},
                 DistPieceSpec{1, {Access::add(kLaAccount, +amount, amount)}}};
  return spec;
}

DistTxnSpec both_branch_sum() {
  DistTxnSpec spec;
  spec.kind = TxnKind::Query;
  spec.piece_epsilon = 5000;  // import budget per piece
  spec.pieces = {DistPieceSpec{0, {Access::read(kNyAccount)}},
                 DistPieceSpec{1, {Access::read(kLaAccount)}}};
  return spec;
}

}  // namespace

int main() {
  NetworkOptions n;
  n.one_way_latency = std::chrono::microseconds(10000);  // 10 ms coast-to-coast
  SimNetwork net(2, n);
  DatabaseOptions dbo;
  dbo.scheduler = SchedulerKind::DC;
  Site ny(0, net, dbo);
  Site la(1, net, dbo);
  ny.db().load(kNyAccount, 50000);
  la.db().load(kLaAccount, 50000);
  const std::vector<Site*> sites{&ny, &la};
  Coordinator::install_chop_handler(sites);
  ny.start();
  la.start();

  Coordinator coord(ny, sites);

  std::printf("== traditional: 2PC + global validation ==\n");
  {
    auto out = coord.run_2pc(transfer(1000));
    if (out.ok()) {
      std::printf("client saw commit after %.1f ms; all sites committed "
                  "after %.1f ms\n",
                  out.value().client_latency_us / 1000.0,
                  out.value().complete_latency_us / 1000.0);
    }
  }

  std::printf("\n== the paper's way: chopped + recoverable queues ==\n");
  {
    auto out = coord.run_chopped(transfer(1000), 5000ms);
    if (out.ok()) {
      std::printf("client saw commit after %.2f ms; LA piece landed after "
                  "%.1f ms (asynchronously)\n",
                  out.value().client_latency_us / 1000.0,
                  out.value().complete_latency_us / 1000.0);
    }
  }

  std::printf("\n== a distributed query runs the same way ==\n");
  {
    auto out = coord.run_chopped(both_branch_sum(), 5000ms);
    if (out.ok()) {
      std::printf("sum-of-branches query chopped across sites, complete in "
                  "%.1f ms\n",
                  out.value().complete_latency_us / 1000.0);
    }
  }

  std::printf("\n== Los Angeles crashes; New York keeps serving ==\n");
  la.crash();
  auto during = coord.run_chopped(transfer(2000), 50ms);
  if (during.ok()) {
    std::printf("transfer committed for the client in %.2f ms with LA DOWN\n",
                during.value().client_latency_us / 1000.0);
    std::printf("LA balance still %.0f (piece queued durably)\n",
                la.db().store().read_committed(kLaAccount).value());
    la.recover();
    if (ny.wait_done(during.value().gtid, 10000ms)) {
      std::printf("after recovery the queued piece applied: LA balance %.0f\n",
                  la.db().store().read_committed(kLaAccount).value());
    }
  }

  std::printf("\nfinal: NY=%.0f LA=%.0f (total conserved: %.0f)\n",
              ny.db().store().read_committed(kNyAccount).value(),
              la.db().store().read_committed(kLaAccount).value(),
              ny.db().store().read_committed(kNyAccount).value() +
                  la.db().store().read_committed(kLaAccount).value());

  ny.stop();
  la.stop();
  return 0;
}
