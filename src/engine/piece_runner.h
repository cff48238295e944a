// Runs one original transaction as its chopped pieces (Sections 2, 4).
//
// Pieces execute in dependency order, each as an independent ET against the
// Database.  The chopping contract is enforced here:
//
//   * piece 1 may take the programmed rollback -> the original transaction
//     is abandoned and no later piece runs (rollback-safety);
//   * any piece aborted for a lock conflict / deadlock / fuzziness overrun
//     is resubmitted (with jittered backoff) until it commits -- once piece 1
//     commits, the original transaction MUST eventually commit;
//   * the eps-spec each piece runs with comes from the LimitDistributor
//     (static even split or Figure 2's dynamic leftover propagation), and a
//     committed piece reports its measured Z_p back so leftovers flow;
//   * with a WAL, "must eventually commit" survives a crash: piece 1 of a
//     multi-piece update logs the continuation in its commit record, every
//     piece stamps its own (wal/continuation.h), and resume() finishes what
//     recovery finds open.  That is also what lets every piece but the last
//     commit kAsync: the log is durable in LSN order, so the last piece's
//     flush covers the earlier pieces -- one log force per original.
//
// The runner also separates the two fuzziness totals the paper cares about:
// the restricted-piece total (what Condition 3 actually bounds by Limit_t)
// and the raw total over all pieces (which includes the divergence control's
// over-estimation on unrestricted pieces -- Section 2.2's point).
#pragma once

#include <cstdint>
#include <memory>

#include "chop/program.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "engine/plan.h"
#include "sched/database.h"
#include "wal/continuation.h"

namespace atp {

/// Run one op on an open transaction: the value a Read returns (0 for a
/// mutation), or the failure.  The op dispatch of every piece, local
/// (PieceRunner) or at a remote site (dist/coordinator.h).
[[nodiscard]] inline Result<Value> run_op(Txn& txn, const Access& op) {
  if (op.type == AccessType::Read) return txn.read(op.item);
  Status s = op.type == AccessType::Add ? txn.add(op.item, op.delta)
                                        : txn.write(op.item, op.delta);
  if (!s.ok()) return s;
  return Value{0};
}

/// The limit distributor `policy` names, for one execution of `info`.
[[nodiscard]] std::unique_ptr<LimitDistributor> make_distributor(
    DistPolicy policy, const ChopPlanInfo& info);

struct TxnRunResult {
  /// All pieces committed.  False with rolled_back false: a piece hit the
  /// resubmission cap; if piece 1 had committed, the continuation stays
  /// open on the log for resume().
  bool committed = false;
  bool rolled_back = false;   ///< programmed rollback taken in piece 1
  Value z_restricted = 0;     ///< sum of Z_p over restricted pieces
  Value z_total = 0;          ///< sum of Z_p over all pieces (over-estimate)
  Value observed_result = 0;  ///< sum of values read (query ETs)
  std::uint64_t resubmissions = 0;
  double latency_us = 0;
};

class PieceRunner {
 public:
  /// `metrics` may be nullptr (tests that only want the return value).
  /// Non-zero op delays insert jittered think time between operations,
  /// stretching lock/resource holding time (what chopping attacks).
  /// `parallel_pieces` enables Figure 2's Schedule(): dependent pieces with
  /// a common parent run on sibling threads instead of sequentially.
  PieceRunner(Database& db, RunMetrics* metrics,
              std::uint64_t op_delay_min_us = 0,
              std::uint64_t op_delay_max_us = 0,
              bool parallel_pieces = false,
              CommitWait commit_wait = CommitWait::kSync) noexcept
      : db_(db),
        metrics_(metrics),
        op_delay_min_us_(op_delay_min_us),
        op_delay_max_us_(op_delay_max_us),
        parallel_pieces_(parallel_pieces),
        commit_wait_(commit_wait) {}

  /// Execute `instance` according to `plan` (its type's chopping) under the
  /// given distribution policy.  Blocks until the transaction either fully
  /// commits, takes its programmed rollback, or gives up at the
  /// resubmission cap.  `commit_wait` governs the piece that finishes the
  /// original (the last, or each leaf of a parallel fan-out); the pieces
  /// before it commit kAsync.
  TxnRunResult run(const TxnTypePlan& plan, const TxnInstance& instance,
                   DistPolicy policy, Rng& rng);

  /// Finish an original transaction recovery found open: replay the
  /// committed pieces' Z_p into the distributor, then run the pieces that
  /// have no stamped commit, in index order, each stamped with the same
  /// continuation.  committed = false if the continuation does not fit
  /// `plan` (wrong piece count or op count) or a piece gives up.
  TxnRunResult resume(const TxnTypePlan& plan, const OpenContinuation& open,
                      DistPolicy policy, Rng& rng);

  /// Default cap on per-piece resubmissions before giving up (defends tests
  /// against livelock; the paper's process handler retries forever).
  static constexpr std::uint64_t kMaxResubmit = 100000;

  /// Lower the cap (tests of the give-up path).
  void set_max_resubmit(std::uint64_t cap) noexcept { max_resubmit_ = cap; }

 private:
  struct PieceOutcome;
  struct Tally;

  /// run_one_piece's `continuation` for piece 1 of a logged original: open
  /// a continuation named after the piece's own TxnId.
  static constexpr TxnId kOpenContinuation = ~TxnId{0};

  /// `original`: trace id of the original transaction the piece belongs to
  /// (kInvalidTxn when tracing is off).  `continuation`: the continuation
  /// this piece advances when it commits (kInvalidTxn: none is logged;
  /// piece 1 of a logged original passes kOpenContinuation).
  PieceOutcome run_one_piece(const TxnTypePlan& plan,
                             const TxnInstance& instance, std::size_t piece,
                             Value limit, Rng& rng, TxnId original,
                             TxnId continuation, CommitWait wait);

  /// Run piece `p` with the limit `tally` assigns and account its outcome.
  /// Returns false if it gave up.
  bool run_and_account(const TxnTypePlan& plan, const TxnInstance& instance,
                       std::size_t p, Rng& rng, TxnId original,
                       TxnId continuation, CommitWait wait, Tally& tally);

  /// The continuation piece 1 logs: the parameters of every op after it.
  /// Built in cont_scratch_, so a runner allocates only the payload string
  /// (and not even that when it fits the string's inline buffer).
  std::string continuation_payload(const TxnTypePlan& plan,
                                   const TxnInstance& instance);

  /// Metrics + trace for an original that finished all its pieces.
  void finish(TxnRunResult& result, const TxnInstance& instance,
              TxnId original, double latency_us);

  Database& db_;
  RunMetrics* metrics_;
  std::uint64_t op_delay_min_us_ = 0;
  std::uint64_t op_delay_max_us_ = 0;
  bool parallel_pieces_ = false;
  CommitWait commit_wait_ = CommitWait::kSync;
  std::uint64_t max_resubmit_ = kMaxResubmit;
  /// continuation_payload's reused buffer.  Only piece 1 encodes, and it
  /// runs on the calling thread before any parallel fan-out.
  Continuation cont_scratch_;
};

}  // namespace atp
