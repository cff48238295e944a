// Distributed transaction execution, both ways the paper compares
// (Section 4):
//
//   * run_2pc       -- the traditional approach: subtransactions at every
//     site, a prepare round, an optional global-validation round, and a
//     commit round.  Locks at every participant are held until its commit
//     message arrives; a participant or coordinator failure between prepare
//     and commit blocks.
//
//   * run_chopped   -- the paper's approach: the first piece commits locally
//     and hands the rest of the transaction to the next site through a
//     recoverable queue.  No commit protocol, no global validation: the
//     client sees commit after ONE local commit; remaining pieces commit
//     asynchronously, retried by the process handler until they succeed,
//     surviving site failures via the queues' durability.
//
// dist/ keeps only the routing: sites, queues, the done notice and 2PC.  A
// piece's ops run through the engine's run_op, its import limit comes from
// limits/, and a chopped chain travels as a wal/continuation payload
// (CrossSiteContinuation) carrying only the pieces still to run.
//
// Subtransaction data operations execute by direct in-process calls to the
// remote site's Database (generous to the 2PC baseline: it pays network
// latency only for protocol rounds, never for data shipping).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chop/program.h"
#include "common/status.h"
#include "dist/site.h"
#include "engine/method.h"

namespace atp {

struct DistPieceSpec {
  SiteId site = 0;
  std::vector<Access> ops;
};

struct DistTxnSpec {
  TxnKind kind = TxnKind::Update;
  /// Limit_t, the whole transaction's import budget (the paper's $10,000 in
  /// the NY/LA example).  limits/ distributes it over the pieces, each one
  /// restricted.  It is live only for a query chain: update pieces run
  /// serializable and are never charged (spec_for).
  Value limit = 0;
  /// Static splits `limit` evenly over the pieces; Dynamic (Figure 2) hands
  /// piece 1 all of it and each committed piece's leftover to the next.
  DistPolicy policy = DistPolicy::Static;
  /// Chain order; pieces[0] runs at the coordinator's home site.
  std::vector<DistPieceSpec> pieces;
};

struct DistOutcome {
  std::uint64_t gtid = 0;
  double client_latency_us = 0;    ///< when the client observes commit
  double complete_latency_us = 0;  ///< when every piece has committed
  bool completed = false;          ///< completion confirmed (chopped mode)
};

class Coordinator {
 public:
  /// `sites[i]` must be the site with id i; `home` one of them.
  Coordinator(Site& home, std::vector<Site*> sites);

  /// Traditional distributed commit.  `validation_round` adds the global
  /// serialization-order check the paper says the baseline needs.
  /// `decision_timeout` bounds the prepare/vote wait (vote timeout aborts).
  [[nodiscard]] Result<DistOutcome> run_2pc(
      const DistTxnSpec& spec, bool validation_round = true,
      std::chrono::milliseconds decision_timeout =
          std::chrono::milliseconds(2000));

  /// Chopped execution over recoverable queues.  Returns after piece 1
  /// commits (the client-visible moment); waits up to `completion_timeout`
  /// for the all-pieces-done notice to measure completion latency.
  [[nodiscard]] Result<DistOutcome> run_chopped(
      const DistTxnSpec& spec,
      std::chrono::milliseconds completion_timeout =
          std::chrono::milliseconds(10000));

  /// Install the chopped-piece continuation handler on every site.  Call
  /// once per site fleet before any run_chopped.
  static void install_chop_handler(const std::vector<Site*>& sites);

 private:
  Site& home_;
  std::vector<Site*> sites_;
};

/// Done-notice payload: the gtid as 8 little-endian bytes.
[[nodiscard]] std::string encode_gtid(std::uint64_t gtid);
[[nodiscard]] std::optional<std::uint64_t> decode_gtid(std::string_view bytes);

}  // namespace atp
