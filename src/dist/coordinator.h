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

namespace atp {

struct DistPieceSpec {
  SiteId site = 0;
  std::vector<Access> ops;
};

struct DistTxnSpec {
  TxnKind kind = TxnKind::Update;
  /// Per-piece eps budget: the paper pre-divides Limit_t across sites
  /// (e.g. $10,000 split $5,000 + $5,000 in the NY/LA example).  It is live
  /// only for a query chain, as each piece's import limit; update pieces
  /// run serializable and are never charged (spec_for).
  Value piece_epsilon = 0;
  /// Dynamic distribution across the distributed chain (Figure 2 ported to
  /// Section 4): piece 1 runs with the WHOLE budget `piece_epsilon *
  /// pieces.size()`, and each continuation carries the measured leftover
  /// `Limit - Z_p` to the next site.  Static pre-division when false.
  bool dynamic_epsilon = false;
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

/// Payload forwarded from piece to piece through the recoverable queues.
struct ChopContinuation {
  std::uint64_t gtid = 0;
  Value piece_epsilon = 0;  ///< this piece's budget (leftover when dynamic)
  bool dynamic_epsilon = false;
  std::vector<DistPieceSpec> pieces;  ///< the full chain
  std::size_t next = 0;               ///< index of the piece to run
  SiteId origin = 0;                  ///< home site, for the done notice
};

/// Queue-payload codec: flat little-endian fixed-width bytes.  What travels
/// through a recoverable queue is exactly what hits the WAL and the wire --
/// no erased types anywhere on the durable path.
[[nodiscard]] std::string encode_chop(const ChopContinuation& cont);
/// nullopt on a truncated or malformed buffer.
[[nodiscard]] std::optional<ChopContinuation> decode_chop(
    std::string_view bytes);

/// Done-notice payload: the gtid as 8 little-endian bytes.
[[nodiscard]] std::string encode_gtid(std::uint64_t gtid);
[[nodiscard]] std::optional<std::uint64_t> decode_gtid(std::string_view bytes);

}  // namespace atp
